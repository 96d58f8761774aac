package eventlog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
)

// encodeMarshal is Encode as first written: the whole record through
// json.Marshal, the CRC through fmt. The reference for the framing.
func encodeMarshal(rec eventlog.Record) []byte {
	payload, err := json.Marshal(rec)
	if err != nil {
		panic("eventlog: marshal record: " + err.Error())
	}
	out := []byte("EL1 ")
	out = append(out, fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))...)
	out = append(out, ' ')
	out = append(out, payload...)
	return append(out, '\n')
}

// FuzzEncode: for every record whose Data comes from json.Marshal — as
// Append's does — Encode writes the bytes the json.Marshal framing
// wrote, and the line replays to the same record. Data is built from the
// input: valid JSON goes through json.Marshal as a raw message, anything
// else is marshaled as a JSON string, and empty Data is omitted. The
// seeds cover every runstate record and strings json.Marshal escapes:
// <, > and &, U+2028, control characters and invalid UTF-8.
func FuzzEncode(f *testing.F) {
	odd := "<a&b>\u2028\u2029\x00\x01\b\f\n\r\t\x1f\x7f \"q\" \\ é \xff\xfe"
	rcpt := receipt.Receipt{Job: "job-000001", Kind: "dse", Key: "dse:" + odd, Cells: 24,
		ResultHash: "ab12", Requeued: []string{odd, "policy=rr"}, Sig: "cd34"}
	records := []struct {
		typ  string
		data any
	}{
		{runstate.EvJobAccepted, runstate.JobAccepted{ID: "job-000001", Kind: "taskset", Key: "taskset:" + odd,
			Cells: []string{"cell:taskset:" + odd}, Payload: json.RawMessage(`{"policy": "rr", "name": "<&> "}`)}},
		{runstate.EvCellStarted, runstate.CellStarted{Job: "job-000001", Idx: 3}},
		{runstate.EvCellDone, runstate.CellDone{Job: "job-000001", Idx: 3, Hash: odd, Cached: true}},
		{runstate.EvJobDone, runstate.JobDone{ID: "job-000001", ResultHash: odd, Receipt: rcpt}},
		{runstate.EvJobFailed, runstate.JobFailed{ID: "job-000001", Error: "cell 0 (" + odd + "): boom"}},
		{runstate.EvJobCancelled, runstate.JobCancelled{ID: "job-000001"}},
		{"note", nil},
	}
	for i, r := range records {
		data, err := json.Marshal(r.data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint64(i+1), r.typ, data)
	}
	f.Add(uint64(1), "cell.done", []byte(nil)) // Data omitted
	f.Add(uint64(0), "", []byte(`{}`))         // empty type, zero seq
	f.Add(uint64(1<<64-1), odd, []byte(odd))   // odd type, non-JSON data
	f.Add(uint64(7), "type with \"quotes\"", []byte(`[1, 2.50, "x"]`))
	f.Add(uint64(8), "\xc3", []byte("\"\u2028\u2029 <&> \\ud800\"")) // truncated rune, raw U+2028/9, escaped lone surrogate
	for _, c := range []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\u2028", "é", "\xff"} {
		f.Add(uint64(1), "type"+c, []byte(nil)) // one byte of each escaping class
	}

	f.Fuzz(func(t *testing.T, seq uint64, typ string, in []byte) {
		var data []byte
		if len(in) > 0 {
			var v any = string(in)
			if json.Valid(in) {
				v = json.RawMessage(in)
			}
			var err error
			if data, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		rec := eventlog.Record{Seq: seq, Type: typ, Data: data}
		got, want := eventlog.Encode(rec), encodeMarshal(rec)
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the json.Marshal framing\n got %q\nwant %q", got, want)
		}
		if seq != 1 || typ == "" {
			return // Decode replays a log from seq 1 and rejects untyped records
		}
		recs, valid := eventlog.Decode(got)
		if len(recs) != 1 || valid != len(got) {
			t.Fatalf("Decode(Encode(r)) = %d records, %d/%d bytes", len(recs), valid, len(got))
		}
		var wantType string
		q, _ := json.Marshal(typ)
		if err := json.Unmarshal(q, &wantType); err != nil {
			t.Fatal(err)
		}
		if r := recs[0]; r.Seq != seq || r.Type != wantType || !bytes.Equal(r.Data, data) {
			t.Fatalf("Decode(Encode(r)) = %+v, want seq %d type %q data %q", r, seq, wantType, data)
		}
	})
}
