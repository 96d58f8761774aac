// Package eventlog is the campaign server's append-only, checksummed
// journal — the single source of truth that makes every run
// crash-resumable. Each record is one line:
//
//	EL1 <crc32-hex8> <payload-json>\n
//
// where the CRC-32 (IEEE) covers the payload bytes and the payload is a
// compact JSON object carrying a strictly increasing sequence number, a
// record type and opaque data. A restarted server replays the log,
// recovers to the longest valid prefix — a truncated (torn) tail, a
// checksum mismatch or a broken sequence ends the replay at the last
// valid record, never fails open — truncates the file there and appends
// from that point on.
//
// Records deliberately carry no wall-clock time: the log of an
// uninterrupted campaign and the log of the same campaign killed and
// resumed materialize to identical run states (see campaign/runstate),
// which is the invariant the kill-and-restart differential harness
// pins.
package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"
)

// magic prefixes every record line; bump on any framing change so a log
// written by a different format version recovers to empty rather than
// misparsing.
const magic = "EL1 "

// Record is one journal entry as seen by replay.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// ErrCrash is returned by Append after the crash hook has fired (see
// SetCrashAfter): the log has simulated a process kill — possibly
// leaving a torn record on disk — and accepts no further writes.
var ErrCrash = errors.New("eventlog: simulated crash (log closed to writes)")

// Decode replays a log image and returns the records of its longest
// valid prefix plus that prefix's byte length. It never fails: any
// malformed tail — torn record, bad magic, checksum mismatch, unparsable
// payload, duplicate or gapped sequence — simply ends the replay at the
// last valid record.
func Decode(data []byte) (recs []Record, valid int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline yet
		}
		line := data[off : off+nl]
		rec, ok := decodeLine(line, uint64(len(recs))+1)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		valid = off
	}
	return recs, valid
}

// decodeLine parses one framed line, enforcing the expected sequence
// number (1-based, strictly increasing without gaps).
func decodeLine(line []byte, wantSeq uint64) (Record, bool) {
	if len(line) < len(magic)+9 || string(line[:len(magic)]) != magic {
		return Record{}, false
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(line[len(magic):len(magic)+8]), "%08x", &crc); err != nil {
		return Record{}, false
	}
	if line[len(magic)+8] != ' ' {
		return Record{}, false
	}
	payload := line[len(magic)+9:]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Seq != wantSeq || rec.Type == "" {
		return Record{}, false
	}
	return rec, true
}

// Encode frames one record. It writes the payload the struct tags of
// Record describe — {"seq":N,"type":T,"data":D}, "data" omitted when
// empty — without a second JSON pass over Data: Data must be compact,
// HTML-escaped JSON as json.Marshal produces it (Append's is), and is
// copied as is. Identical records encode to identical bytes.
func Encode(rec Record) []byte {
	out := make([]byte, len(magic)+9, len(magic)+9+len(`{"seq":,"type":"","data":}`)+20+len(rec.Type)+len(rec.Data)+1)
	copy(out, magic)
	out[len(magic)+8] = ' '
	payload := len(out)
	out = strconv.AppendUint(append(out, `{"seq":`...), rec.Seq, 10)
	out = appendJSONString(append(out, `,"type":`...), rec.Type)
	if len(rec.Data) > 0 {
		out = append(append(out, `,"data":`...), rec.Data...)
	}
	out = append(out, '}')
	crc := crc32.ChecksumIEEE(out[payload:])
	for i := len(magic) + 7; i >= len(magic); i-- {
		out[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	return append(out, '\n')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as json.Marshal encodes a string. Record
// types are short ASCII names, written directly; a string holding any
// byte json.Marshal may escape (quotes, backslashes, control and
// non-ASCII characters, <, > and &) goes through json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Log is an open journal positioned for appending. Safe for concurrent
// Append from the campaign's cell workers.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seq  uint64 // last written sequence number

	// crash drill (SetCrashAfter)
	crashArmed bool
	crashIn    int // appends until the crash fires
	torn       int // bytes of the crashing record that still reach disk
	crashed    bool
}

// Open replays (and, if the tail is damaged, repairs) the journal at
// path, returning the log positioned for appending plus the recovered
// records. A missing file starts an empty journal.
func Open(path string) (*Log, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("eventlog: %w", err)
	}
	recs, valid := Decode(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("eventlog: %w", err)
	}
	if valid < len(data) {
		// Torn or corrupt tail: recover to the last valid record.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("eventlog: truncate to valid prefix: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("eventlog: %w", err)
	}
	l := &Log{f: f, path: path, seq: uint64(len(recs))}
	return l, recs, nil
}

// Append journals one record of the given type with data marshaled to
// JSON, assigning the next sequence number. On a simulated crash the
// record may reach disk only partially (torn) and ErrCrash is returned;
// every subsequent Append also fails with ErrCrash without writing.
func (l *Log) Append(typ string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("eventlog: marshal %s: %w", typ, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrash
	}
	rec := Encode(Record{Seq: l.seq + 1, Type: typ, Data: raw})
	if l.crashArmed {
		l.crashIn--
		if l.crashIn <= 0 {
			l.crashed = true
			torn := l.torn
			if torn > len(rec) {
				torn = len(rec)
			}
			if torn > 0 {
				l.f.Write(rec[:torn]) // best effort: the crash is the point
			}
			return ErrCrash
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("eventlog: append: %w", err)
	}
	l.seq++
	return nil
}

// Seq returns the sequence number of the last durably appended record.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SetCrashAfter arms the crash drill: counting from now, the n-th Append
// writes only the first torn bytes of its record (0 = nothing) and fails
// with ErrCrash, as does every Append after it. The kill-and-restart
// harness uses this to kill the server at randomized log positions with
// a randomized torn tail; operators can use it for recovery drills on a
// staging store.
func (l *Log) SetCrashAfter(n, torn int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashArmed = n > 0
	l.crashIn = n
	l.torn = torn
}

// Sync flushes the journal to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
