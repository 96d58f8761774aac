// Package sdl implements a small textual system-design language for
// describing specification models — behaviors with delay annotations,
// channels, interrupts and task mappings — and running them through the
// design flow (unscheduled and RTOS-based architecture models). It plays
// the role SpecC source plays for the paper: models as files rather than
// programs, consumed by the cmd/slsim tool.
//
// The paper's example models ship as SDL files embedded in the package
// and are opened with Load: models/figure3.sdl (the Figure 3 design,
// whose traces are Figure 8) and the JPEG encoder's mappings,
// models/jpeg.sdl and models/jpeg_hwsw.sdl. figure3.sdl is the reference
// for the single-PE syntax: channel, behavior, compose, top, irq and task
// declarations.
//
// Statements have fixed arity, so no terminators are needed; '#' starts a
// comment running to end of line. Times are integers with an optional
// ns/us/ms/s suffix.
//
// Multi-PE models add the mapping layer (testdata/pipeline2pe.sdl):
//
//	pe CPU0 sw                                   # software PE (RTOS instance)
//	pe ACC hw                                    # hardware PE (unscheduled)
//	bus sysbus arb 100ns perbyte 10ns
//	link data over sysbus from CPU0 to ACC bytes 8 isr 1us
//	map cpu0work to CPU0                         # top-level par children -> PEs
//
// A link's optional `isr T` clause sets the service time of its receive
// ISR on the destination PE (default 0). Links are used with the same send/recv statements as queues; before
// mapping (RunUnscheduled / RunArchitecture) they behave as plain message
// channels, after mapping (RunMapped) they travel over the arbitrated bus
// with the ISR→semaphore→driver receive path.
package sdl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/personality"
	"repro/internal/sim"
)

// ChannelKind enumerates the declarable channel types.
type ChannelKind int

const (
	// ChanQueue is a bounded FIFO (arg = capacity).
	ChanQueue ChannelKind = iota
	// ChanSemaphore is a counting semaphore (arg = initial count).
	ChanSemaphore
	// ChanHandshake is a latched signal.
	ChanHandshake
	// ChanLink is an inter-PE message link over a bus (multi-PE models
	// only; declared with "link", not "channel").
	ChanLink
)

// ChannelDecl declares a channel.
type ChannelDecl struct {
	Name string
	Kind ChannelKind
	Arg  int
}

// StmtOp enumerates leaf-behavior statements.
type StmtOp int

const (
	OpDelay StmtOp = iota
	OpSend
	OpRecv
	OpAcquire
	OpRelease
	OpSignal
	OpWaitSig
	OpMarker
	OpRepeat
)

// Stmt is one statement of a leaf behavior.
type Stmt struct {
	Op      StmtOp
	Dur     sim.Time // OpDelay
	Channel string   // channel-using ops
	Value   int64    // OpSend / OpMarker argument
	Label   string   // OpMarker
	Count   int      // OpRepeat
	Body    []Stmt   // OpRepeat
}

// BehaviorDecl is a leaf behavior (statement list).
type BehaviorDecl struct {
	Name  string
	Stmts []Stmt
}

// ComposeDecl composes previously declared behaviors sequentially or in
// parallel.
type ComposeDecl struct {
	Name     string
	Parallel bool
	Children []string
}

// IRQDecl declares an external interrupt releasing a semaphore, possibly
// periodic.
type IRQDecl struct {
	Name     string
	At       sim.Time
	Releases string
	Every    sim.Time // 0: one-shot
	Count    int      // repetitions when Every > 0
}

// TaskDecl maps a behavior to an RTOS task in the architecture model.
type TaskDecl struct {
	Behavior string
	Priority int
	Period   sim.Time
	WCET     sim.Time
	Periodic bool
}

// PEDecl declares a processing element for multi-PE models.
type PEDecl struct {
	Name string
	SW   bool // software PE with an RTOS instance; false = hardware
	CPUs int  // 0/1: uniprocessor (the only mapped configuration)
}

// BusDecl declares a shared bus.
type BusDecl struct {
	Name     string
	ArbDelay sim.Time
	PerByte  sim.Time
}

// LinkDecl declares an inter-PE message link synthesized over a bus; its
// name is usable in send/recv statements like a queue.
type LinkDecl struct {
	Name     string
	Bus      string
	From, To string // PE names
	Bytes    int
	ISR      sim.Time // service time of the receive ISR on the To PE
}

// MapDecl assigns a top-level behavior (a child of the top composition)
// to a PE.
type MapDecl struct {
	Behavior string
	PE       string
}

// Model is a parsed SDL file.
type Model struct {
	Channels    []ChannelDecl
	Behaviors   []BehaviorDecl
	Composes    []ComposeDecl
	IRQs        []IRQDecl
	Tasks       []TaskDecl
	PEs         []PEDecl
	Buses       []BusDecl
	Links       []LinkDecl
	Maps        []MapDecl
	Top         string
	Personality string // RTOS personality for architecture runs ("" = generic)
}

// MultiPE reports whether the model declares processing elements (and
// therefore must be run with RunMapped).
func (m *Model) MultiPE() bool { return len(m.PEs) > 0 }

// parser state over a token stream.
type parser struct {
	toks []string
	pos  int
}

// Parse parses SDL source into a Model and validates it.
func Parse(src string) (*Model, error) {
	p := &parser{toks: tokenize(src)}
	m := &Model{}
	for !p.done() {
		word := p.next()
		var err error
		switch word {
		case "channel":
			err = p.channel(m)
		case "behavior":
			err = p.behavior(m)
		case "compose":
			err = p.compose(m)
		case "irq":
			err = p.irq(m)
		case "task":
			err = p.task(m)
		case "pe":
			err = p.pe(m)
		case "bus":
			err = p.bus(m)
		case "link":
			err = p.link(m)
		case "map":
			err = p.mapDecl(m)
		case "top":
			m.Top, err = p.ident()
		case "personality":
			m.Personality, err = p.ident()
		default:
			err = fmt.Errorf("unexpected %q at top level", word)
		}
		if err != nil {
			return nil, fmt.Errorf("sdl: %v", err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// tokenize splits on whitespace, treating braces as their own tokens and
// '#' comments as line-terminated.
func tokenize(src string) []string {
	var toks []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.ReplaceAll(line, "{", " { ")
		line = strings.ReplaceAll(line, "}", " } ")
		toks = append(toks, strings.Fields(line)...)
	}
	return toks
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) next() string {
	if p.done() {
		return ""
	}
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("expected %q, got %q", tok, got)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t == "" || t == "{" || t == "}" {
		return "", fmt.Errorf("expected identifier, got %q", t)
	}
	return t, nil
}

func (p *parser) int() (int, error) {
	t := p.next()
	v, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("expected integer, got %q", t)
	}
	return v, nil
}

func (p *parser) int64() (int64, error) {
	t := p.next()
	v, err := strconv.ParseInt(t, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("expected integer, got %q", t)
	}
	return v, nil
}

// time parses an integer with optional ns/us/ms/s suffix.
func (p *parser) time() (sim.Time, error) {
	return ParseTime(p.next())
}

// ParseTime converts "280", "280ns", "20us", "5ms" or "1s" to sim.Time.
func ParseTime(t string) (sim.Time, error) {
	unit := sim.Time(1)
	num := t
	switch {
	case strings.HasSuffix(t, "ns"):
		num = t[:len(t)-2]
	case strings.HasSuffix(t, "us"):
		num, unit = t[:len(t)-2], sim.Microsecond
	case strings.HasSuffix(t, "ms"):
		num, unit = t[:len(t)-2], sim.Millisecond
	case strings.HasSuffix(t, "s"):
		num, unit = t[:len(t)-1], sim.Second
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", t)
	}
	return sim.Time(v) * unit, nil
}

func (p *parser) channel(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	kind := p.next()
	d := ChannelDecl{Name: name}
	switch kind {
	case "queue":
		d.Kind = ChanQueue
		if d.Arg, err = p.int(); err != nil {
			return err
		}
	case "semaphore":
		d.Kind = ChanSemaphore
		if d.Arg, err = p.int(); err != nil {
			return err
		}
	case "handshake":
		d.Kind = ChanHandshake
	default:
		return fmt.Errorf("channel %s: unknown kind %q", name, kind)
	}
	m.Channels = append(m.Channels, d)
	return nil
}

func (p *parser) behavior(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return fmt.Errorf("behavior %s: %v", name, err)
	}
	stmts, err := p.stmts(name)
	if err != nil {
		return err
	}
	m.Behaviors = append(m.Behaviors, BehaviorDecl{Name: name, Stmts: stmts})
	return nil
}

// stmts parses statements until the closing brace.
func (p *parser) stmts(owner string) ([]Stmt, error) {
	var out []Stmt
	for {
		tok := p.next()
		switch tok {
		case "}":
			return out, nil
		case "":
			return nil, fmt.Errorf("behavior %s: missing }", owner)
		case "delay":
			d, err := p.time()
			if err != nil {
				return nil, err
			}
			out = append(out, Stmt{Op: OpDelay, Dur: d})
		case "send":
			ch, err := p.ident()
			if err != nil {
				return nil, err
			}
			v, err := p.int64()
			if err != nil {
				return nil, err
			}
			out = append(out, Stmt{Op: OpSend, Channel: ch, Value: v})
		case "recv", "acquire", "release", "signal", "waitsig":
			ch, err := p.ident()
			if err != nil {
				return nil, err
			}
			op := map[string]StmtOp{"recv": OpRecv, "acquire": OpAcquire,
				"release": OpRelease, "signal": OpSignal, "waitsig": OpWaitSig}[tok]
			out = append(out, Stmt{Op: op, Channel: ch})
		case "marker":
			label, err := p.ident()
			if err != nil {
				return nil, err
			}
			v, err := p.int64()
			if err != nil {
				return nil, err
			}
			out = append(out, Stmt{Op: OpMarker, Label: label, Value: v})
		case "repeat":
			n, err := p.int()
			if err != nil {
				return nil, err
			}
			if err := p.expect("{"); err != nil {
				return nil, err
			}
			body, err := p.stmts(owner)
			if err != nil {
				return nil, err
			}
			out = append(out, Stmt{Op: OpRepeat, Count: n, Body: body})
		default:
			return nil, fmt.Errorf("behavior %s: unknown statement %q", owner, tok)
		}
	}
}

func (p *parser) compose(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	mode := p.next()
	if mode != "seq" && mode != "par" {
		return fmt.Errorf("compose %s: expected seq or par, got %q", name, mode)
	}
	if err := p.expect("{"); err != nil {
		return fmt.Errorf("compose %s: %v", name, err)
	}
	var kids []string
	for {
		tok := p.next()
		if tok == "}" {
			break
		}
		if tok == "" {
			return fmt.Errorf("compose %s: missing }", name)
		}
		kids = append(kids, tok)
	}
	m.Composes = append(m.Composes, ComposeDecl{Name: name, Parallel: mode == "par", Children: kids})
	return nil
}

func (p *parser) irq(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("at"); err != nil {
		return err
	}
	at, err := p.time()
	if err != nil {
		return err
	}
	if err := p.expect("releases"); err != nil {
		return err
	}
	sem, err := p.ident()
	if err != nil {
		return err
	}
	d := IRQDecl{Name: name, At: at, Releases: sem, Count: 1}
	if p.peek() == "every" {
		p.next()
		if d.Every, err = p.time(); err != nil {
			return err
		}
		if err := p.expect("count"); err != nil {
			return err
		}
		if d.Count, err = p.int(); err != nil {
			return err
		}
	}
	m.IRQs = append(m.IRQs, d)
	return nil
}

func (p *parser) task(m *Model) error {
	beh, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("priority"); err != nil {
		return err
	}
	prio, err := p.int()
	if err != nil {
		return err
	}
	d := TaskDecl{Behavior: beh, Priority: prio}
	for p.peek() == "period" || p.peek() == "wcet" {
		switch p.next() {
		case "period":
			if d.Period, err = p.time(); err != nil {
				return err
			}
			d.Periodic = true
		case "wcet":
			if d.WCET, err = p.time(); err != nil {
				return err
			}
		}
	}
	m.Tasks = append(m.Tasks, d)
	return nil
}

// pe parses: pe NAME sw|hw [cpus N]
func (p *parser) pe(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	kind := p.next()
	if kind != "sw" && kind != "hw" {
		return fmt.Errorf("pe %s: expected sw or hw, got %q", name, kind)
	}
	d := PEDecl{Name: name, SW: kind == "sw"}
	if p.peek() == "cpus" {
		p.next()
		if d.CPUs, err = p.int(); err != nil {
			return fmt.Errorf("pe %s: %v", name, err)
		}
		if d.CPUs < 1 {
			return fmt.Errorf("pe %s: cpus %d must be >= 1", name, d.CPUs)
		}
	}
	m.PEs = append(m.PEs, d)
	return nil
}

// bus parses: bus NAME arb TIME perbyte TIME
func (p *parser) bus(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	d := BusDecl{Name: name}
	if err := p.expect("arb"); err != nil {
		return err
	}
	if d.ArbDelay, err = p.time(); err != nil {
		return err
	}
	if err := p.expect("perbyte"); err != nil {
		return err
	}
	if d.PerByte, err = p.time(); err != nil {
		return err
	}
	m.Buses = append(m.Buses, d)
	return nil
}

// link parses: link NAME over BUS from PE to PE bytes N [isr TIME]
func (p *parser) link(m *Model) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	d := LinkDecl{Name: name}
	for _, kw := range []struct {
		word string
		dst  *string
	}{{"over", &d.Bus}, {"from", &d.From}, {"to", &d.To}} {
		if err := p.expect(kw.word); err != nil {
			return fmt.Errorf("link %s: %v", name, err)
		}
		if *kw.dst, err = p.ident(); err != nil {
			return err
		}
	}
	if err := p.expect("bytes"); err != nil {
		return fmt.Errorf("link %s: %v", name, err)
	}
	if d.Bytes, err = p.int(); err != nil {
		return err
	}
	if p.peek() == "isr" {
		p.next()
		if d.ISR, err = p.time(); err != nil {
			return err
		}
	}
	m.Links = append(m.Links, d)
	return nil
}

// mapDecl parses: map BEHAVIOR to PE
func (p *parser) mapDecl(m *Model) error {
	beh, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("to"); err != nil {
		return err
	}
	pe, err := p.ident()
	if err != nil {
		return err
	}
	m.Maps = append(m.Maps, MapDecl{Behavior: beh, PE: pe})
	return nil
}

// Validate checks cross-references: channels used by statements and IRQs
// exist, compose children exist, top exists, no duplicate names.
func (m *Model) Validate() error {
	if m.Top == "" {
		return fmt.Errorf("sdl: no top declaration")
	}
	if !personality.Valid(m.Personality) {
		return fmt.Errorf("sdl: unknown personality %q (have %v)", m.Personality, personality.Kinds())
	}
	for _, pe := range m.PEs {
		// Reject impossible mappings at parse time rather than deep inside
		// a simulation run: the RTOS model (and every personality layered
		// on it) is uniprocessor, so an SMP software PE has no builder.
		if pe.CPUs > 1 {
			if !pe.SW {
				return fmt.Errorf("sdl: pe %q: cpus %d on a hardware PE; hw PEs are unscheduled and have no CPU count", pe.Name, pe.CPUs)
			}
			if m.Personality != "" {
				return fmt.Errorf("sdl: pe %q: personality %q models a uniprocessor RTOS and cannot run on %d CPUs; declare one sw pe per CPU or drop the personality directive",
					pe.Name, m.Personality, pe.CPUs)
			}
			return fmt.Errorf("sdl: pe %q: cpus %d: SMP software PEs are not supported by the mapped builder; declare one sw pe per CPU", pe.Name, pe.CPUs)
		}
	}
	chans := map[string]ChannelKind{}
	for _, c := range m.Channels {
		if _, dup := chans[c.Name]; dup {
			return fmt.Errorf("sdl: duplicate channel %q", c.Name)
		}
		chans[c.Name] = c.Kind
		var err error
		switch c.Kind {
		case ChanQueue:
			err = channel.ValidateQueue(c.Name, c.Arg)
		case ChanSemaphore:
			err = channel.ValidateSemaphore(c.Name, c.Arg)
		}
		if err != nil {
			return fmt.Errorf("sdl: %w", err)
		}
	}
	for _, l := range m.Links {
		if _, dup := chans[l.Name]; dup {
			return fmt.Errorf("sdl: link %q collides with a channel", l.Name)
		}
		chans[l.Name] = ChanLink
	}
	names := map[string]bool{}
	for _, b := range m.Behaviors {
		if names[b.Name] {
			return fmt.Errorf("sdl: duplicate behavior %q", b.Name)
		}
		names[b.Name] = true
		if err := checkStmts(b.Name, b.Stmts, chans); err != nil {
			return err
		}
	}
	for _, c := range m.Composes {
		if names[c.Name] {
			return fmt.Errorf("sdl: duplicate behavior %q", c.Name)
		}
		names[c.Name] = true
		if len(c.Children) == 0 {
			return fmt.Errorf("sdl: compose %q has no children", c.Name)
		}
	}
	for _, c := range m.Composes {
		for _, k := range c.Children {
			if !names[k] {
				return fmt.Errorf("sdl: compose %q references unknown behavior %q", c.Name, k)
			}
		}
	}
	if !names[m.Top] {
		return fmt.Errorf("sdl: top behavior %q not declared", m.Top)
	}
	for _, irq := range m.IRQs {
		if kind, ok := chans[irq.Releases]; !ok || kind != ChanSemaphore {
			return fmt.Errorf("sdl: irq %q must release a declared semaphore, got %q", irq.Name, irq.Releases)
		}
	}
	for _, t := range m.Tasks {
		if !names[t.Behavior] {
			return fmt.Errorf("sdl: task mapping references unknown behavior %q", t.Behavior)
		}
	}
	if m.MultiPE() {
		if err := m.validateMultiPE(names); err != nil {
			return err
		}
	} else if len(m.Buses) > 0 || len(m.Links) > 0 || len(m.Maps) > 0 {
		return fmt.Errorf("sdl: bus/link/map declarations require pe declarations")
	}
	return nil
}

// validateMultiPE checks the mapping layer's cross-references.
func (m *Model) validateMultiPE(names map[string]bool) error {
	pes := map[string]bool{}
	for _, pe := range m.PEs {
		if pes[pe.Name] {
			return fmt.Errorf("sdl: duplicate pe %q", pe.Name)
		}
		pes[pe.Name] = true
	}
	buses := map[string]bool{}
	for _, b := range m.Buses {
		if buses[b.Name] {
			return fmt.Errorf("sdl: duplicate bus %q", b.Name)
		}
		buses[b.Name] = true
	}
	for _, l := range m.Links {
		if !buses[l.Bus] {
			return fmt.Errorf("sdl: link %q over unknown bus %q", l.Name, l.Bus)
		}
		if !pes[l.From] || !pes[l.To] {
			return fmt.Errorf("sdl: link %q connects unknown PEs %q->%q", l.Name, l.From, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("sdl: link %q connects PE %q to itself", l.Name, l.From)
		}
		if l.Bytes < 0 {
			return fmt.Errorf("sdl: link %q has negative size", l.Name)
		}
		if l.ISR < 0 {
			return fmt.Errorf("sdl: link %q has a negative isr time", l.Name)
		}
	}
	mapped := map[string]string{}
	for _, md := range m.Maps {
		if !names[md.Behavior] {
			return fmt.Errorf("sdl: map of unknown behavior %q", md.Behavior)
		}
		if !pes[md.PE] {
			return fmt.Errorf("sdl: map of %q to unknown pe %q", md.Behavior, md.PE)
		}
		if _, dup := mapped[md.Behavior]; dup {
			return fmt.Errorf("sdl: behavior %q mapped twice", md.Behavior)
		}
		mapped[md.Behavior] = md.PE
	}
	// The top composition's children partition onto PEs.
	for _, c := range m.Composes {
		if c.Name != m.Top {
			continue
		}
		if !c.Parallel {
			return fmt.Errorf("sdl: multi-PE top %q must be a par composition", m.Top)
		}
		for _, k := range c.Children {
			if _, ok := mapped[k]; !ok {
				return fmt.Errorf("sdl: top-level behavior %q is not mapped to a pe", k)
			}
		}
		return nil
	}
	return fmt.Errorf("sdl: multi-PE top %q must be a declared par composition", m.Top)
}

func checkStmts(owner string, stmts []Stmt, chans map[string]ChannelKind) error {
	for _, s := range stmts {
		switch s.Op {
		case OpSend, OpRecv:
			if kind, ok := chans[s.Channel]; !ok || (kind != ChanQueue && kind != ChanLink) {
				return fmt.Errorf("sdl: behavior %s: %q is not a declared queue", owner, s.Channel)
			}
		case OpAcquire, OpRelease:
			if kind, ok := chans[s.Channel]; !ok || kind != ChanSemaphore {
				return fmt.Errorf("sdl: behavior %s: %q is not a declared semaphore", owner, s.Channel)
			}
		case OpSignal, OpWaitSig:
			if kind, ok := chans[s.Channel]; !ok || kind != ChanHandshake {
				return fmt.Errorf("sdl: behavior %s: %q is not a declared handshake", owner, s.Channel)
			}
		case OpDelay:
			if s.Dur < 0 {
				return fmt.Errorf("sdl: behavior %s: negative delay", owner)
			}
		case OpRepeat:
			if s.Count < 0 {
				return fmt.Errorf("sdl: behavior %s: negative repeat count", owner)
			}
			if err := checkStmts(owner, s.Body, chans); err != nil {
				return err
			}
		}
	}
	return nil
}
