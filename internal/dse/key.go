package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/sim"
	"repro/internal/taskset"
)

// canonVersion guards the canonical serialization; bump on any format
// change so stale persisted cache entries can never be misattributed.
// The golden-hash test in key_test.go fails loudly on accidental drift.
const canonVersion = "tsv1"

// Canonical serializes a task set into its semantic normal form: every
// default is made explicit (policy, time model, personality, engine,
// CPUs, horizon, task type, the quantum only round-robin consumes), the
// policy, its quantum and the horizon are the ones taskset resolves for
// the run (Set.RunPolicy, Set.Horizon: "prio" is "priority",
// "roundrobin" is "rr", "" on several CPUs is "g-fp"), times are
// nanosecond integers, and fields appear in a fixed order — so two sets
// that simulate identically (reordered JSON fields, omitted defaults,
// aliased names) serialize identically, and any semantically meaningful
// difference changes the bytes. Cache keys hash these bytes (HashSet);
// anything simulation-relevant that is missing here would let distinct
// configurations collide in the cache. Strings are quoted with
// strconv.Quote and integers printed in decimal, the bytes fmt's %q and
// %d produce.
//
// The form is the header line (CanonicalHeader) followed by one line
// per task (AppendCanonicalTasks). Sets that differ only in their run
// fields share the task lines, so a sweep renders them once and appends
// each variant's header in front.
func Canonical(s *taskset.Set) []byte {
	n := 160 + len(s.Policy) + len(s.TimeModel) + len(s.Personality) + len(s.Engine)
	for _, t := range s.Tasks {
		n += 160 + len(t.Name) + 12*len(t.ComputeUs)
	}
	return AppendCanonicalTasks(CanonicalHeader(make([]byte, 0, n), s), s.Tasks)
}

// CanonicalHeader appends the first line of Canonical(s): the version
// and the run fields the set resolves to, ending in the task count and
// a newline.
func CanonicalHeader(b []byte, s *taskset.Set) []byte {
	cpus := max(s.CPUs, 1)
	// An unknown policy name stays as written (Canonical is total over
	// invalid sets too); only round-robin consumes the quantum.
	policy, quantum, _ := s.RunPolicy()
	if policy != "rr" {
		quantum = 0
	}
	tmodel := s.TimeModel
	if tmodel == "" {
		tmodel = "coarse"
	}
	pers := s.Personality
	if pers == "" {
		pers = "generic"
	}
	engine := s.Engine
	if engine == "" || cpus > 1 {
		engine = "goroutine"
	}
	b = appendQuoted(b, canonVersion+" policy=", policy)
	b = appendInt(b, " quantum=", int64(quantum))
	b = appendQuoted(b, " tmodel=", tmodel)
	b = appendQuoted(b, " pers=", pers)
	b = appendInt(b, " cpus=", int64(cpus))
	b = appendQuoted(b, " engine=", engine)
	b = appendInt(b, " horizon=", int64(s.Horizon()))
	b = appendInt(b, " tasks=", int64(len(s.Tasks)))
	return append(b, '\n')
}

// AppendCanonicalTasks appends the task lines of Canonical for a set
// with these tasks, one line per task in order.
func AppendCanonicalTasks(b []byte, tasks []taskset.Task) []byte {
	for _, t := range tasks {
		typ := t.Type
		if typ == "" {
			typ = "periodic"
		}
		b = appendQuoted(b, "task name=", t.Name)
		b = appendQuoted(b, " type=", typ)
		b = appendInt(b, " prio=", int64(t.Prio))
		b = appendInt(b, " period=", int64(sim.Time(t.PeriodUs*1000)))
		b = appendInt(b, " wcet=", int64(sim.Time(t.WcetUs*1000)))
		b = appendInt(b, " start=", int64(sim.Time(t.StartUs*1000)))
		b = appendInt(b, " cycles=", int64(t.Cycles))
		b = appendInt(b, " segs=", int64(len(t.ComputeUs)))
		for _, c := range t.ComputeUs {
			b = appendInt(b, " ", c*1000)
		}
		b = append(b, '\n')
	}
	return b
}

// appendQuoted appends key and v quoted as by fmt's %q.
func appendQuoted(b []byte, key, v string) []byte {
	return strconv.AppendQuote(append(b, key...), v)
}

// appendInt appends key and v in decimal.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// HashSet returns the content hash of the set's canonical form — the
// cache key for memoized task-set evaluations.
func HashSet(s *taskset.Set) string {
	sum := sha256.Sum256(Canonical(s))
	return hex.EncodeToString(sum[:])
}
