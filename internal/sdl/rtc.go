package sdl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RTCWorkload lowers the model to a hierarchical workload for the
// run-to-completion engine (internal/rtc): the frame-compiled counterpart
// of RunArchitecture. Only single-PE models qualify — multi-PE mappings
// and bus links need the goroutine kernel's multi-instance machinery.
func (m *Model) RTCWorkload(policy string, quantum sim.Time, tm core.TimeModel, horizon sim.Time) (rtc.Workload, error) {
	if m.MultiPE() || len(m.Links) > 0 {
		return rtc.Workload{}, fmt.Errorf("sdl: the rtc engine runs single-PE models without links")
	}
	w := rtc.Workload{
		Name:        "PE",
		Policy:      policy,
		Quantum:     quantum,
		TimeModel:   tm,
		Personality: m.Personality,
		Top:         m.Top,
		Horizon:     horizon,
		Trace:       true,
	}
	for _, c := range m.Channels {
		var kind string
		switch c.Kind {
		case ChanQueue:
			kind = "queue"
		case ChanSemaphore:
			kind = "semaphore"
		case ChanHandshake:
			kind = "handshake"
		default:
			return rtc.Workload{}, fmt.Errorf("sdl: channel %q has no rtc lowering", c.Name)
		}
		w.Channels = append(w.Channels, rtc.ChannelDef{Name: c.Name, Kind: kind, Arg: c.Arg})
	}
	for _, b := range m.Behaviors {
		w.Behaviors = append(w.Behaviors, rtc.BehaviorDef{
			Name: b.Name, Kind: "leaf", Stmts: lowerStmts(b.Stmts),
		})
	}
	for _, c := range m.Composes {
		kind := "seq"
		if c.Parallel {
			kind = "par"
		}
		w.Behaviors = append(w.Behaviors, rtc.BehaviorDef{
			Name: c.Name, Kind: kind, Children: c.Children,
		})
	}
	for _, d := range m.IRQs {
		w.IRQs = append(w.IRQs, rtc.IRQDef{
			Name: d.Name, Sem: d.Releases, At: d.At, Every: d.Every, Count: d.Count,
		})
	}
	for _, t := range m.Tasks {
		td := rtc.TaskDef{Name: t.Behavior, Prio: t.Priority, Type: "aperiodic"}
		if t.Periodic {
			td.Type = "periodic"
			td.Period = t.Period
		}
		w.Tasks = append(w.Tasks, td)
	}
	return w, nil
}

func lowerStmts(stmts []Stmt) []rtc.Op {
	out := make([]rtc.Op, 0, len(stmts))
	for _, s := range stmts {
		switch s.Op {
		case OpDelay:
			out = append(out, rtc.Op{Kind: "delay", Dur: s.Dur})
		case OpSend:
			out = append(out, rtc.Op{Kind: "send", Ch: s.Channel, Value: s.Value})
		case OpRecv:
			out = append(out, rtc.Op{Kind: "recv", Ch: s.Channel})
		case OpAcquire:
			out = append(out, rtc.Op{Kind: "acquire", Ch: s.Channel})
		case OpRelease:
			out = append(out, rtc.Op{Kind: "release", Ch: s.Channel})
		case OpSignal:
			out = append(out, rtc.Op{Kind: "signal", Ch: s.Channel})
		case OpWaitSig:
			out = append(out, rtc.Op{Kind: "waitsig", Ch: s.Channel})
		case OpMarker:
			out = append(out, rtc.Op{Kind: "marker", Label: s.Label, Value: s.Value})
		case OpRepeat:
			out = append(out, rtc.Op{Kind: "repeat", Count: s.Count, Body: lowerStmts(s.Body)})
		}
	}
	return out
}

// RunArchitectureRTC runs the architecture model on the run-to-completion
// engine — the -engine=rtc counterpart of RunArchitecture, which attaches
// each bus as RunArchitecture does. The horizon bounds the run (the
// goroutine model runs to quiescence; pass a horizon beyond the model's
// natural end for identical results).
func (m *Model) RunArchitectureRTC(policy string, quantum sim.Time, tm core.TimeModel, horizon sim.Time, bus ...*telemetry.Bus) (*rtc.Result, error) {
	w, err := m.RTCWorkload(policy, quantum, tm, horizon)
	if err != nil {
		return nil, err
	}
	res := rtc.Run(w, bus...)
	if res.Err != nil {
		return res, res.Err
	}
	return res, nil
}
