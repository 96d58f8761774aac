package dse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/taskset"
)

// TestKeyCollisionRegression pins the fix for the Config.Key collision
// bug: values were joined with unescaped "=" and " ", so a value
// containing the separators could forge another configuration's key.
func TestKeyCollisionRegression(t *testing.T) {
	pairs := []struct {
		name string
		a, b Config
	}{
		{"space-equals-in-value", Config{"a": "1 b=2"}, Config{"a": "1", "b": "2"}},
		{"equals-in-name-vs-value", Config{"a=b": "c"}, Config{"a": "b=c"}},
		{"escape-is-not-the-char", Config{"a": "%3D"}, Config{"a": "="}},
		{"trailing-space", Config{"a": "1 ", "b": "2"}, Config{"a": "1", "b": " 2"}},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			if ka, kb := p.a.Key(), p.b.Key(); ka == kb {
				t.Errorf("distinct configs collide: %v and %v both key as %q", p.a, p.b, ka)
			}
		})
	}
}

// TestKeyPlainValuesUnescaped: ordinary axes keep the readable form used
// in tables and logs.
func TestKeyPlainValuesUnescaped(t *testing.T) {
	if got := (Config{"b": "y", "a": "2"}).Key(); got != "a=2 b=y" {
		t.Errorf("Key() = %q, want %q", got, "a=2 b=y")
	}
}

func baseSet() *taskset.Set {
	return &taskset.Set{
		Tasks: []taskset.Task{
			{Name: "ctrl", Prio: 1, PeriodUs: 5000, WcetUs: 1200},
			{Name: "dsp", Prio: 2, PeriodUs: 10000, ComputeUs: []int64{800, 400}},
			{Name: "io", Type: "aperiodic", Prio: 3, StartUs: 2500, WcetUs: 300, Cycles: 4},
		},
	}
}

// TestCanonicalNormalizesDefaults: a set written with every default
// omitted and the same set with every default explicit are the same
// configuration and must hash equal.
func TestCanonicalNormalizesDefaults(t *testing.T) {
	implicit, explicit := baseSet(), explicitSet()
	if HashSet(implicit) != HashSet(explicit) {
		t.Errorf("explicit defaults hash differently from omitted defaults:\n%s\nvs\n%s",
			Canonical(implicit), Canonical(explicit))
	}
}

// explicitSet is baseSet with every default written out.
func explicitSet() *taskset.Set {
	s := baseSet()
	s.Policy = "priority"
	s.TimeModel = "coarse"
	s.Personality = "generic"
	s.Engine = "goroutine"
	s.CPUs = 1
	s.HorizonMs = 1000
	s.Tasks[0].Type = "periodic"
	return s
}

// TestCanonicalIgnoresInertQuantum: the quantum only matters under "rr";
// under any other policy it is simulation-inert and must not split the
// cache.
func TestCanonicalIgnoresInertQuantum(t *testing.T) {
	a, b := baseSet(), baseSet()
	b.QuantumUs = 500
	if HashSet(a) != HashSet(b) {
		t.Errorf("quantum changed the hash under the priority policy")
	}
	a.Policy, b.Policy = "rr", "rr"
	a.QuantumUs = 250
	if HashSet(a) == HashSet(b) {
		t.Errorf("quantum did not change the hash under rr")
	}
}

// TestCanonicalPolicyAliases: core.PolicyByName runs each alias as its
// canonical policy, and round-robin with the quantum taskset gives it
// (1 ms when quantumUs is unset or rounds to zero), so the cache must
// key them that way — an alias that dropped its quantum served one
// round-robin result for another.
func TestCanonicalPolicyAliases(t *testing.T) {
	for _, p := range aliasPairs() {
		t.Run(p.name, func(t *testing.T) {
			if HashSet(p.a) != HashSet(p.b) {
				t.Errorf("alias hashes differently:\n%s\nvs\n%s", Canonical(p.a), Canonical(p.b))
			}
		})
	}
	t.Run("roundrobin-quantum", func(t *testing.T) {
		if a, b := withPolicy("roundrobin", 1000), withPolicy("roundrobin", 5000); HashSet(a) == HashSet(b) {
			t.Errorf("roundrobin quanta 1000 and 5000 us collide:\n%s", Canonical(a))
		}
	})
}

// withPolicy is baseSet under the given policy name and quantum.
func withPolicy(policy string, quantumUs float64) *taskset.Set {
	s := baseSet()
	s.Policy, s.QuantumUs = policy, quantumUs
	return s
}

// setPair is two sets under a name.
type setPair struct {
	name string
	a, b *taskset.Set
}

// aliasPairs lists pairs of sets that name one policy and quantum in
// two ways.
func aliasPairs() []setPair {
	return []setPair{
		{"prio", withPolicy("prio", 0), withPolicy("priority", 0)},
		{"fifo", withPolicy("fifo", 0), withPolicy("fcfs", 0)},
		{"roundrobin", withPolicy("roundrobin", 500), withPolicy("rr", 500)},
		{"ratemonotonic", withPolicy("ratemonotonic", 0), withPolicy("rm", 0)},
		{"roundrobin-default-quantum", withPolicy("roundrobin", 0), withPolicy("rr", 1000)},
		{"rr-quantum-rounds-to-zero", withPolicy("rr", 0.0001), withPolicy("rr", 1000)},
		{"rr-default-quantum", withPolicy("rr", 0), withPolicy("rr", 1000)},
	}
}

// TestCanonicalPerturbations: every semantically meaningful change to
// the set must change the hash — a miss here is a cache collision
// between configurations that simulate differently.
func TestCanonicalPerturbations(t *testing.T) {
	base := HashSet(baseSet())
	seen := map[string]string{base: "base"}
	for _, p := range perturbations {
		t.Run(p.name, func(t *testing.T) {
			s := baseSet()
			p.mutate(s)
			h := HashSet(s)
			if prev, dup := seen[h]; dup {
				t.Errorf("perturbation %q hashes identically to %q", p.name, prev)
			}
			seen[h] = p.name
		})
	}
}

// perturbations each change baseSet in one semantically meaningful way.
var perturbations = []struct {
	name   string
	mutate func(*taskset.Set)
}{
	{"policy", func(s *taskset.Set) { s.Policy = "edf" }},
	{"rr-quantum", func(s *taskset.Set) { s.Policy = "rr"; s.QuantumUs = 500 }},
	{"time-model", func(s *taskset.Set) { s.TimeModel = "segmented" }},
	{"personality", func(s *taskset.Set) { s.Personality = "itron" }},
	{"cpus", func(s *taskset.Set) { s.CPUs = 2 }},
	{"engine", func(s *taskset.Set) { s.Engine = "rtc" }},
	{"horizon", func(s *taskset.Set) { s.HorizonMs = 500 }},
	{"task-added", func(s *taskset.Set) {
		s.Tasks = append(s.Tasks, taskset.Task{Name: "bg", Prio: 9, PeriodUs: 50000, WcetUs: 10})
	}},
	{"task-dropped", func(s *taskset.Set) { s.Tasks = s.Tasks[:2] }},
	{"task-renamed", func(s *taskset.Set) { s.Tasks[0].Name = "ctrl2" }},
	{"task-type", func(s *taskset.Set) { s.Tasks[0].Type = "aperiodic" }},
	{"task-prio", func(s *taskset.Set) { s.Tasks[0].Prio = 7 }},
	{"task-period", func(s *taskset.Set) { s.Tasks[0].PeriodUs = 6000 }},
	{"task-wcet", func(s *taskset.Set) { s.Tasks[0].WcetUs = 1300 }},
	{"task-start", func(s *taskset.Set) { s.Tasks[2].StartUs = 3000 }},
	{"task-cycles", func(s *taskset.Set) { s.Tasks[2].Cycles = 5 }},
	{"task-segment-value", func(s *taskset.Set) { s.Tasks[1].ComputeUs[1] = 500 }},
	{"task-segment-split", func(s *taskset.Set) { s.Tasks[1].ComputeUs = []int64{600, 600} }},
}

// TestHashSetGolden pins the canonical serialization format: if this
// hash moves, Canonical's byte format changed and canonVersion must be
// bumped so persisted cache entries from the old format cannot be
// misattributed.
func TestHashSetGolden(t *testing.T) {
	const want = "4963fa9f9b2f4ef22c741a3776a5f9c076845ce8f3758cd3257ea9e8ff952ae3"
	if got := HashSet(baseSet()); got != want {
		t.Errorf("canonical format drifted:\n got %s\nwant %s\nserialization:\n%s", got, want, Canonical(baseSet()))
	}
}

// canonicalFmt is Canonical as first written, with fmt: the reference
// for the byte format tsv1. It predates the policy alias rule, so it
// is compared on sets whose policy is already normalized (aliasFree).
func canonicalFmt(s *taskset.Set) []byte {
	cpus := s.CPUs
	if cpus < 1 {
		cpus = 1
	}
	policy := s.Policy
	if cpus > 1 {
		if policy != "g-edf" {
			policy = "g-fp"
		}
	} else if policy == "" {
		policy = "priority"
	}
	var quantum sim.Time
	if policy == "rr" {
		quantum = sim.Time(s.QuantumUs * 1000)
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
	horizon := sim.Time(s.HorizonMs * 1e6)
	if horizon <= 0 {
		horizon = sim.Second
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "%s policy=%q quantum=%d tmodel=%q pers=%q cpus=%d engine=%q horizon=%d tasks=%d\n",
		canonVersion, policy, int64(quantum), tmodel, pers, cpus, engine, int64(horizon), len(s.Tasks))
	for _, t := range s.Tasks {
		typ := t.Type
		if typ == "" {
			typ = "periodic"
		}
		fmt.Fprintf(&b, "task name=%q type=%q prio=%d period=%d wcet=%d start=%d cycles=%d segs=%d",
			t.Name, typ, t.Prio, int64(sim.Time(t.PeriodUs*1000)), int64(sim.Time(t.WcetUs*1000)),
			int64(sim.Time(t.StartUs*1000)), t.Cycles, len(t.ComputeUs))
		for _, c := range t.ComputeUs {
			fmt.Fprintf(&b, " %d", c*1000)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// aliasFree rewrites a uniprocessor set to the policy name and quantum
// taskset resolves for it (Set.UniPolicy). The result simulates exactly
// as the input does.
func aliasFree(s *taskset.Set) *taskset.Set {
	c := *s
	if c.CPUs > 1 {
		return &c
	}
	p, q, err := c.UniPolicy()
	if err != nil {
		return &c
	}
	c.Policy = p.Name()
	if sim.Time(c.QuantumUs*1000) != q {
		c.QuantumUs = float64(q) / 1000
	}
	return &c
}

// randomSet draws a task set over every policy name (aliases, SMP and
// unknown ones included), personality, engine and time model, with
// task names that need quoting: quotes, backslashes, non-ASCII and
// control characters, invalid UTF-8. Sets need not be valid —
// Canonical is total.
func randomSet(rng *rand.Rand) *taskset.Set {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	num := func(xs ...float64) float64 {
		if i := rng.Intn(len(xs) + 1); i < len(xs) {
			return xs[i]
		}
		return rng.Float64() * 1e5
	}
	s := &taskset.Set{
		Policy: pick("", "priority", "prio", "fcfs", "fifo", "rr", "roundrobin",
			"edf", "rm", "ratemonotonic", "g-fp", "g-edf", "bogus"),
		QuantumUs:   num(0, 0.0001, 0.5, 250, 1000, 1234.5678),
		TimeModel:   pick("", "coarse", "segmented"),
		Personality: pick("", "generic", "itron", "osek"),
		CPUs:        rng.Intn(4),
		Engine:      pick("", "goroutine", "rtc"),
		HorizonMs:   num(0, 5, 20.5, 1000),
	}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		name := pick("ctrl", `say "hi"`, `back\slash`, "é-ü", "日本", "\x00ctl\x1f\x7f",
			"tab\tnl\n", "\xff\xfe", "\u2028<&>", "")
		if rng.Intn(3) == 0 {
			raw := make([]byte, rng.Intn(9))
			rng.Read(raw)
			name += string(raw)
		}
		t := taskset.Task{
			Name:     name,
			Type:     pick("", "periodic", "aperiodic"),
			Prio:     rng.Intn(60) - 5,
			PeriodUs: num(1000, 2500.25),
			WcetUs:   num(0, 250),
			StartUs:  num(0, 300.5),
			Cycles:   rng.Intn(5),
		}
		for j, m := 0, rng.Intn(5); j < m; j++ {
			t.ComputeUs = append(t.ComputeUs, rng.Int63n(1e6)-1000)
		}
		s.Tasks = append(s.Tasks, t)
	}
	return s
}

// TestCanonicalMatchesFmtReference: the strconv encoder writes the bytes
// the fmt reference writes for the same normalized set, so every
// persisted tsv1 cache key stays valid.
func TestCanonicalMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		s := randomSet(rng)
		got, want := Canonical(s), canonicalFmt(aliasFree(s))
		if !bytes.Equal(got, want) {
			t.Fatalf("set %d: encoders differ\n got %q\nwant %q", i, got, want)
		}
	}
	if got, want := Canonical(baseSet()), canonicalFmt(baseSet()); !bytes.Equal(got, want) {
		t.Fatalf("base set: encoders differ\n got %q\nwant %q", got, want)
	}
}

// TestCanonicalIsHeaderPlusTasks: Canonical is its header line followed
// by its task lines, for every set the tests above key, so a sweep that
// renders the shared task lines once and puts each variant's header in
// front writes the bytes Canonical writes.
func TestCanonicalIsHeaderPlusTasks(t *testing.T) {
	sets := []*taskset.Set{baseSet(), explicitSet(), withPolicy("roundrobin", 1000), withPolicy("roundrobin", 5000)}
	for _, p := range aliasPairs() {
		sets = append(sets, p.a, p.b)
	}
	for _, p := range perturbations {
		s := baseSet()
		p.mutate(s)
		sets = append(sets, s)
	}
	rng := rand.New(rand.NewSource(1)) // TestCanonicalMatchesFmtReference's sets
	for i := 0; i < 600; i++ {
		s := randomSet(rng)
		sets = append(sets, s, aliasFree(s))
	}
	for i, s := range sets {
		got := AppendCanonicalTasks(CanonicalHeader(nil, s), s.Tasks)
		if want := Canonical(s); !bytes.Equal(got, want) {
			t.Fatalf("set %d: header plus tasks differs from Canonical\n got %q\nwant %q", i, got, want)
		}
		if head, _, _ := bytes.Cut(Canonical(s), []byte("\n")); !bytes.Equal(CanonicalHeader(nil, s), append(head, '\n')) {
			t.Fatalf("set %d: CanonicalHeader is not Canonical's first line", i)
		}
	}
}
