package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/campaign/idempotency"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fault"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// Job kinds the server accepts.
const (
	KindTaskset = "taskset" // payload: a task-set JSON (internal/taskset)
	KindSDL     = "sdl"     // payload: {"source": "...", "policy", "quantumUs", "timeModel"}
	KindFault   = "fault"   // payload: {"seeds": [...], "plans": [...], "policy", ...}
	KindDSE     = "dse"     // payload: {"base": <task set>, "axes": [{"name", "values"}]}
)

// Kinds lists the accepted job kinds.
func Kinds() []string { return []string{KindTaskset, KindSDL, KindFault, KindDSE} }

// maxCells bounds a single job's fan-out; a larger campaign is submitted
// as several jobs.
const maxCells = 4096

// cellSpec is one unit of resumable work: a content-addressed key (the
// idempotency key that also addresses the shared result cache), a
// deterministic label for result assembly and receipts, and the
// execution body. Cell bytes must be a pure function of the cell key —
// that is what lets a crash-resumed cell be served from the cache
// byte-identically.
type cellSpec struct {
	key   string
	label string
	run   func() ([]byte, *telemetry.Report, error)
}

// buildJob decodes and validates a submission, derives its idempotency
// key and materializes its cells. It is a pure function of (kind,
// payload): a restarted server rebuilds the exact same cells from the
// journaled payload. Validation failures carry the underlying
// taskset/sdl/fault message for the structured HTTP error.
func buildJob(kind string, payload []byte) (key string, cells []cellSpec, err error) {
	switch kind {
	case KindTaskset:
		return buildTasksetJob(payload)
	case KindSDL:
		return buildSDLJob(payload)
	case KindFault:
		return buildFaultJob(payload)
	case KindDSE:
		return buildDSEJob(payload)
	default:
		return "", nil, fmt.Errorf("campaign: unknown job kind %q (have %v)", kind, Kinds())
	}
}

// ---- taskset jobs -----------------------------------------------------

func buildTasksetJob(payload []byte) (string, []cellSpec, error) {
	s, err := taskset.Parse(payload)
	if err != nil {
		return "", nil, err
	}
	canon := dse.Canonical(s)
	return idempotency.Key("taskset", canon), []cellSpec{tasksetCell(s, canon, "set")}, nil
}

// tasksetCell builds the shared taskset cell of s, whose canonical form
// (dse.Canonical) is canon: DSE sweeps over the same configuration
// produce the same cell key, so results are shared across job kinds
// through the cache.
func tasksetCell(s *taskset.Set, canon []byte, label string) cellSpec {
	return cellSpec{
		key:   idempotency.Key("cell:taskset", canon),
		label: label,
		run:   func() ([]byte, *telemetry.Report, error) { return runTasksetCell(s) },
	}
}

// runTasksetCell runs the set with a telemetry capture on its bus, on
// either engine and any CPU count, and returns the cell bytes and the
// metrics report.
func runTasksetCell(s *taskset.Set) ([]byte, *telemetry.Report, error) {
	cap := telemetry.NewCapture()
	res, err := taskset.Run(s, cap.Bus)
	if err != nil {
		return nil, nil, err
	}
	cap.SetEnd(res.End)
	return renderTasksetResult(res), cap.Report(), nil
}

// renderTasksetResult is the canonical cell byte form of one task-set
// simulation: pure simulation outcome, no wall-clock, so golden and
// resumed campaigns compare byte-identically.
func renderTasksetResult(res *taskset.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "taskset policy=%s tmodel=%s personality=%s cpus=%d horizon=%d end=%d\n",
		res.Policy, res.TimeModel, res.Personality, res.CPUs, int64(res.Horizon), int64(res.End))
	st := res.Stats
	fmt.Fprintf(&b, "stats dispatches=%d ctxsw=%d preempt=%d irqs=%d idle=%d busy=%d overhead=%d\n",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.IRQs,
		int64(st.IdleTime), int64(st.BusyTime), int64(st.OverheadTime))
	for _, tr := range res.Tasks {
		fmt.Fprintf(&b, "task name=%s prio=%d activations=%d missed=%d cputime=%d\n",
			tr.Name, tr.Prio, tr.Activations, tr.Missed, int64(tr.CPUTime))
	}
	return b.Bytes()
}

// ---- sdl jobs ---------------------------------------------------------

type sdlJob struct {
	Source    string  `json:"source"`
	Policy    string  `json:"policy,omitempty"`    // default "priority"
	QuantumUs float64 `json:"quantumUs,omitempty"` // default 1000 ("rr" only)
	TimeModel string  `json:"timeModel,omitempty"` // "coarse" (default) or "segmented"
}

func (j *sdlJob) normalize() error {
	if j.Source == "" {
		return fmt.Errorf("campaign: sdl job needs a \"source\" field with the SDL model text")
	}
	if j.Policy == "" {
		j.Policy = "priority"
	}
	if j.QuantumUs <= 0 {
		j.QuantumUs = 1000
	}
	if j.TimeModel == "" {
		j.TimeModel = "coarse"
	}
	if j.TimeModel != "coarse" && j.TimeModel != "segmented" {
		return fmt.Errorf("campaign: sdl job: unknown time model %q", j.TimeModel)
	}
	if _, err := core.PolicyByName(j.Policy, sim.Time(j.QuantumUs*1000)); err != nil {
		return fmt.Errorf("campaign: sdl job: %v", err)
	}
	if _, err := sdl.Parse(j.Source); err != nil {
		return err
	}
	return nil
}

func buildSDLJob(payload []byte) (string, []cellSpec, error) {
	var j sdlJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return "", nil, fmt.Errorf("campaign: sdl job: %v", err)
	}
	if err := j.normalize(); err != nil {
		return "", nil, err
	}
	canon, err := json.Marshal(j) // normalized struct: deterministic field order
	if err != nil {
		return "", nil, err
	}
	cell := cellSpec{
		key:   idempotency.Key("cell:sdl", canon),
		label: "model",
		run:   func() ([]byte, *telemetry.Report, error) { return runSDLCell(j) },
	}
	return idempotency.Key("sdl", canon), []cellSpec{cell}, nil
}

func runSDLCell(j sdlJob) ([]byte, *telemetry.Report, error) {
	// Parse fresh per execution so retried cells never share model state.
	m, err := sdl.Parse(j.Source)
	if err != nil {
		return nil, nil, err
	}
	policy, err := core.PolicyByName(j.Policy, sim.Time(j.QuantumUs*1000))
	if err != nil {
		return nil, nil, err
	}
	tm := core.TimeModelCoarse
	if j.TimeModel == "segmented" {
		tm = core.TimeModelSegmented
	}
	cap := telemetry.NewCapture()
	var b bytes.Buffer
	if m.MultiPE() {
		rec, oss, _, err := m.RunMapped(policy, tm, cap.Bus)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(&b, "sdl mapped policy=%s tmodel=%s pes=%d\n", policy.Name(), tm, len(oss))
		names := make([]string, 0, len(oss))
		for name := range oss {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := oss[name].StatsSnapshot()
			fmt.Fprintf(&b, "pe name=%s dispatches=%d ctxsw=%d preempt=%d idle=%d\n",
				name, st.Dispatches, st.ContextSwitches, st.Preemptions, int64(st.IdleTime))
		}
		if err := rec.EventList(&b); err != nil {
			return nil, nil, err
		}
		return b.Bytes(), cap.Report(), nil
	}
	rec, osm, err := m.RunArchitecture(policy, tm, cap.Bus)
	if err != nil {
		return nil, nil, err
	}
	st := osm.StatsSnapshot()
	fmt.Fprintf(&b, "sdl arch policy=%s tmodel=%s\n", policy.Name(), tm)
	fmt.Fprintf(&b, "stats dispatches=%d ctxsw=%d preempt=%d irqs=%d idle=%d busy=%d\n",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.IRQs, int64(st.IdleTime), int64(st.BusyTime))
	if err := rec.EventList(&b); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), cap.Report(), nil
}

// ---- fault jobs -------------------------------------------------------

type faultJob struct {
	Seeds       []int64       `json:"seeds"`
	Plans       []*fault.Plan `json:"plans,omitempty"` // empty: the default battery
	Policy      string        `json:"policy,omitempty"`
	TimeModel   string        `json:"timeModel,omitempty"`
	Personality string        `json:"personality,omitempty"`
}

func buildFaultJob(payload []byte) (string, []cellSpec, error) {
	var j faultJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return "", nil, fmt.Errorf("campaign: fault job: %v", err)
	}
	if len(j.Seeds) == 0 {
		return "", nil, fmt.Errorf("campaign: fault job needs at least one seed")
	}
	if len(j.Plans) == 0 {
		j.Plans = fault.DefaultPlans()
	}
	for _, p := range j.Plans {
		if err := p.Validate(); err != nil {
			return "", nil, err
		}
	}
	if n := len(j.Seeds) * len(j.Plans); n > maxCells {
		return "", nil, fmt.Errorf("campaign: fault job fans out to %d cells (max %d); split the campaign", n, maxCells)
	}
	opt := fault.Options{Policy: j.Policy, TimeModel: j.TimeModel, Personality: j.Personality}
	canon, err := json.Marshal(j) // normalized: plans resolved, field order fixed
	if err != nil {
		return "", nil, err
	}
	var cells []cellSpec
	for _, seed := range j.Seeds {
		for _, plan := range j.Plans {
			seed, plan := seed, plan
			planJSON, err := json.Marshal(plan)
			if err != nil {
				return "", nil, err
			}
			cellCanon := fmt.Sprintf("seed=%d opt=%s plan=%s", seed, opt, planJSON)
			cells = append(cells, cellSpec{
				key:   idempotency.Key("cell:fault", []byte(cellCanon)),
				label: fmt.Sprintf("seed=%d plan=%s", seed, plan.Name),
				run: func() ([]byte, *telemetry.Report, error) {
					r := fault.RunScenario(simcheck.Generate(seed), plan, seed, opt)
					return r.DiagnosticStream(), r.Report, nil
				},
			})
		}
	}
	return idempotency.Key("fault", canon), cells, nil
}

// ---- dse jobs ---------------------------------------------------------

type dseAxis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

type dseJob struct {
	Base *taskset.Set `json:"base"`
	Axes []dseAxis    `json:"axes"`
}

// dseAxes are the task-set knobs a sweep may vary — the same fork knobs
// the dse package admits.
var dseAxes = map[string]bool{
	"policy": true, "quantumUs": true, "timeModel": true,
	"personality": true, "engine": true, "horizonMs": true,
}

func buildDSEJob(payload []byte) (string, []cellSpec, error) {
	// The base decodes in place, in the one pass over the payload.
	var j dseJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return "", nil, fmt.Errorf("campaign: dse job: %v", err)
	}
	base := j.Base
	if base == nil {
		return "", nil, fmt.Errorf("campaign: dse job needs a \"base\" task set")
	}
	if err := base.Validate(); err != nil {
		return "", nil, err
	}
	if len(j.Axes) == 0 {
		return "", nil, fmt.Errorf("campaign: dse job needs at least one axis")
	}
	axes := make([]dse.Axis, 0, len(j.Axes))
	n := 1
	values := make(map[string]bool, 8)
	for i, a := range j.Axes {
		if a.Name == "" || len(a.Values) == 0 {
			return "", nil, fmt.Errorf("campaign: dse axis needs a name and values")
		}
		if !dseAxes[a.Name] {
			names := make([]string, 0, len(dseAxes))
			for name := range dseAxes {
				names = append(names, name)
			}
			sort.Strings(names)
			return "", nil, fmt.Errorf("campaign: dse axis %q unknown (have %v)", a.Name, names)
		}
		// A repeated axis or value would name one configuration twice:
		// dse.Grid lets the later axis win, so two cells would share a key
		// and a label.
		for _, prev := range j.Axes[:i] {
			if prev.Name == a.Name {
				return "", nil, fmt.Errorf("campaign: dse axis %q given twice", a.Name)
			}
		}
		clear(values)
		for _, v := range a.Values {
			if values[v] {
				return "", nil, fmt.Errorf("campaign: dse axis %s repeats value %q", a.Name, v)
			}
			values[v] = true
		}
		// Checked per axis, so a huge product is refused before Grid
		// builds it.
		if n *= len(a.Values); n > maxCells {
			return "", nil, fmt.Errorf("campaign: dse grid has more than %d configurations; split the sweep", maxCells)
		}
		axes = append(axes, dse.Axis{Name: a.Name, Values: a.Values})
	}

	// Variants differ from the base only in their run fields, so their
	// canonical forms share the base's task lines: render those once and
	// put each variant's header in front of them.
	tasks := dse.AppendCanonicalTasks(nil, base.Tasks)
	grid := dse.Grid(axes)
	cells := make([]cellSpec, 0, len(grid))
	var canon []byte
	for _, cfg := range grid {
		variant, err := applyConfig(base, cfg)
		if err != nil {
			return "", nil, err
		}
		// Cell key and bytes are those of the variant's plain taskset cell:
		// a DSE sweep and a direct taskset job over the same configuration
		// share one cache entry.
		canon = append(dse.CanonicalHeader(canon[:0], variant), tasks...)
		cells = append(cells, tasksetCell(variant, canon, cfg.Key()))
	}
	// The job key hashes "base=", the base's canonical form and one line
	// per axis in the bytes fmt's "axis name=%q values=%q\n" writes for a
	// name and its []string values, as journaled job keys were made.
	canon = append(dse.CanonicalHeader(append(canon[:0], "base="...), base), tasks...)
	for _, a := range axes {
		canon = strconv.AppendQuote(append(canon, "axis name="...), a.Name)
		canon = append(canon, " values=["...)
		for i, v := range a.Values {
			if i > 0 {
				canon = append(canon, ' ')
			}
			canon = strconv.AppendQuote(canon, v)
		}
		canon = append(canon, "]\n"...)
	}
	return idempotency.Key("dse", canon), cells, nil
}

// axisNumber parses a quantumUs or horizonMs axis value: a plain finite
// number in strconv.ParseFloat syntax, with no surrounding space, unit
// suffix, NaN or infinity.
func axisNumber(name, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("campaign: dse axis %s value %q is not a number", name, val)
	}
	return f, nil
}

// applyConfig returns a copy of base with the configuration's axis
// values applied. Axes set only run fields, so of a validated base
// (Set.Validate) only those are checked again: the variant is then as
// valid as any submitted task set.
func applyConfig(base *taskset.Set, cfg dse.Config) (*taskset.Set, error) {
	v := *base
	var err error
	for name, val := range cfg {
		switch name {
		case "policy":
			v.Policy = val
		case "timeModel":
			v.TimeModel = val
		case "personality":
			v.Personality = val
		case "engine":
			v.Engine = val
		case "quantumUs":
			if v.QuantumUs, err = axisNumber(name, val); err != nil {
				return nil, err
			}
		case "horizonMs":
			if v.HorizonMs, err = axisNumber(name, val); err != nil {
				return nil, err
			}
		}
	}
	if err = v.ValidateRun(); err != nil {
		return nil, fmt.Errorf("configuration %s: %w", cfg.Key(), err)
	}
	return &v, nil
}
