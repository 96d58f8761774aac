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
// Writes are group-committed. Append encodes a record, assigns its
// sequence number and buffers it in memory; Commit writes every
// buffered record with one write(2), and Close commits. The caller
// commits where it owes durability, so a kill loses at most the records
// appended since the last commit (and the file then ends at that
// commit, or inside the lost tail, which replay drops). Seq counts
// appended records, committed or not. Nothing is fsynced: a commit
// survives a killed process, not a power loss. A failed or short write
// latches the log: every later Append and Commit returns the first
// error, so no record ever lands behind a gap or a torn one.
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
	"io"
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

// ErrCrash is returned by Append and Commit after the crash hook has
// fired (see SetCrashAfter): the log has simulated a process kill —
// possibly leaving a torn tail on disk — and accepts no further writes.
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
	return appendRecord(make([]byte, 0, len(magic)+9+len(`{"seq":,"type":"","data":}`)+20+len(rec.Type)+len(rec.Data)+1), rec)
}

// appendRecord appends rec's framed line to b.
func appendRecord(b []byte, rec Record) []byte {
	start := len(b)
	b = append(b, magic...)
	b = append(b, "00000000 "...)
	payload := len(b)
	b = strconv.AppendUint(append(b, `{"seq":`...), rec.Seq, 10)
	b = appendJSONString(append(b, `,"type":`...), rec.Type)
	if len(rec.Data) > 0 {
		b = append(append(b, `,"data":`...), rec.Data...)
	}
	b = append(b, '}')
	crc := crc32.ChecksumIEEE(b[payload:])
	for i := start + len(magic) + 7; i >= start+len(magic); i-- {
		b[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	return append(b, '\n')
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

// pendingLimit bounds the bytes Append buffers: an Append that leaves
// more than this uncommitted commits them itself, so a caller that
// rarely commits (a long run of cache-served cells) still writes in
// bounded chunks.
const pendingLimit = 64 << 10

// file is what a Log needs of its open journal file.
type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Log is an open journal positioned for appending. Safe for concurrent
// Append and Commit from the campaign's cell workers.
type Log struct {
	mu      sync.Mutex
	f       file
	seq     uint64 // last appended sequence number
	pending []byte // records appended since the last commit
	err     error  // first write failure or ErrCrash; latched

	// crash drill (SetCrashAfter)
	crashIn int // appends until the crash fires; 0 = disarmed
	torn    int // bytes of the uncommitted tail that still reach disk
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
	return &Log{f: f, seq: uint64(len(recs))}, recs, nil
}

// Append journals one record of the given type with data marshaled to
// JSON: it assigns the next sequence number and buffers the record for
// the next Commit. It writes only when the buffer passes pendingLimit.
// After a write failure or a simulated crash it returns that error and
// buffers nothing.
func (l *Log) Append(typ string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("eventlog: marshal %s: %w", typ, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.pending = appendRecord(l.pending, Record{Seq: l.seq + 1, Type: typ, Data: raw})
	if l.crashIn > 0 {
		if l.crashIn--; l.crashIn == 0 {
			l.err = ErrCrash
			if torn := min(l.torn, len(l.pending)); torn > 0 {
				l.f.Write(l.pending[:torn]) // best effort: the crash is the point
			}
			return ErrCrash
		}
	}
	l.seq++
	if len(l.pending) > pendingLimit {
		return l.commit()
	}
	return nil
}

// Commit writes every record appended since the last commit with one
// write. After a failed or short write the log is latched: Commit and
// Append return that first error from then on.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit()
}

func (l *Log) commit() error {
	if l.err != nil || len(l.pending) == 0 {
		return l.err
	}
	n, err := l.f.Write(l.pending)
	if err == nil && n < len(l.pending) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.err = fmt.Errorf("eventlog: commit: %w", err)
		return l.err
	}
	if cap(l.pending) > 2*pendingLimit {
		l.pending = nil // one huge record: do not keep its buffer
	} else {
		l.pending = l.pending[:0]
	}
	return nil
}

// Seq returns the sequence number of the last appended record, whether
// or not it has been committed.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SetCrashAfter arms the crash drill: counting from now, the n-th Append
// simulates a kill. The file then holds the last commit plus the first
// torn bytes (0 = none) of the uncommitted tail — the buffered records
// and the crashing one — and that Append, like every Append and Commit
// after it, fails with ErrCrash. The kill-and-restart harness uses this
// to kill the server at randomized log positions with a randomized torn
// tail; operators can use it for recovery drills on a staging store.
func (l *Log) SetCrashAfter(n, torn int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashIn = max(n, 0)
	l.torn = torn
}

// Sync commits and flushes the journal to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.commit(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close commits and closes the underlying file. A latched log is closed
// as it stands, and Close returns the latched error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.commit()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
