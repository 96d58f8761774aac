package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSMPJobMetrics: a multi-CPU taskset job carries a merged metrics
// report in its status, as a uniprocessor one does, and its result and
// receipt keep the bytes they had before the job fed a bus (the
// telemetry stays out of both; the result holds the 2cpu/g-fp/coarse
// cell TestSMPGolden pins).
func TestSMPJobMetrics(t *testing.T) {
	const (
		wantResult  = "eea558577e9405dc2878a43c2480ac8bbc043247e8684b98667652860e555cb8"
		wantReceipt = "8dd0ec431efbb080ffd684150d073df4afef4031dee42cbbf31b17848d901960"
	)
	s, err := Open(Options{Dir: t.TempDir(), Jobs: 1, Key: []byte("smp-job-key")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _, err := s.Submit(KindTaskset, []byte(smpSet("g-fp", "coarse", 2)))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, ok := s.Status(id)
	if !ok || st.Metrics == nil {
		t.Errorf("2-CPU job status has no merged metrics: %+v", st)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := s.Receipt(id)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(rcpt)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	if got := sum(res); got != wantResult {
		t.Errorf("result sha256 %s, want %s\n%s", got, wantResult, res)
	}
	if got := sum(rb); got != wantReceipt {
		t.Errorf("receipt sha256 %s, want %s\n%s", got, wantReceipt, rb)
	}
}
