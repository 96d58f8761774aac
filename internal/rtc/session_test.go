package rtc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// periodicWorkload is an n-task periodic set under the given personality.
func periodicWorkload(n int, pers string) Workload {
	w := Workload{
		Policy:      "priority",
		Personality: pers,
		TimeModel:   core.TimeModelSegmented,
		Horizon:     50 * sim.Millisecond,
	}
	for j := 0; j < n; j++ {
		w.Tasks = append(w.Tasks, TaskDef{
			Name: fmt.Sprintf("t%d", j), Type: "periodic", Prio: j,
			Period:   sim.Time(j+1) * sim.Millisecond,
			Segments: []sim.Time{sim.Time(j+1) * 100 * sim.Microsecond},
		})
	}
	return w
}

// TestNewSessionAllocs pins a build's allocations to one per object
// class — the session (kernel and OS state included), the task and
// machine slabs, the periodic-body array, the body table, the
// scheduler's task table and ready list (one allocation), the machine,
// ready, next and task-binding tables (one allocation), and the timer
// queue's heap and position table — whatever the task count or
// personality. A run of the scheduler-only workload then allocates just
// the Result and its task table.
func TestNewSessionAllocs(t *testing.T) {
	const wantBuild, wantRun = 9, 11
	for _, pers := range []string{"generic", "itron", "osek"} {
		for _, n := range []int{8, 32} {
			w := periodicWorkload(n, pers)
			build := testing.AllocsPerRun(20, func() {
				if _, err := NewSession(w); err != nil {
					t.Fatal(err)
				}
			})
			run := testing.AllocsPerRun(20, func() {
				s, err := NewSession(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntil(w.Horizon); err != nil {
					t.Fatal(err)
				}
				s.Finish()
			})
			if build != wantBuild || run != wantRun {
				t.Errorf("%s, %d tasks: NewSession allocates %.0f times and a whole run %.0f, want %d and %d",
					pers, n, build, run, wantBuild, wantRun)
			}
		}
	}
}

// channelWorkload is periodicWorkload plus two queues and two semaphores
// that a producer/consumer pair drives through every blocking path: the
// consumer outranks the producer, so it blocks on each receive and
// acquire, and the producer blocks acquiring the semaphore the consumer
// releases last. Both outrank the periodic tasks, which overload the CPU
// at 32 tasks.
func channelWorkload(n int, pers string) Workload {
	w := periodicWorkload(n, pers)
	w.Channels = []ChannelDef{
		{Name: "q0", Kind: "queue", Arg: 2},
		{Name: "q1", Kind: "queue", Arg: 2},
		{Name: "s0", Kind: "semaphore", Arg: 0},
		{Name: "s1", Kind: "semaphore", Arg: 0},
	}
	delay := Op{Kind: "delay", Dur: 10 * sim.Microsecond}
	w.Tasks = append(w.Tasks,
		TaskDef{Name: "cons", Type: "aperiodic", Prio: -2, Repeat: 3, Ops: []Op{
			{Kind: "recv", Ch: "q0"}, {Kind: "recv", Ch: "q1"},
			{Kind: "acquire", Ch: "s0"}, delay, {Kind: "release", Ch: "s1"},
		}},
		TaskDef{Name: "prod", Type: "aperiodic", Prio: -1, Repeat: 3, Ops: []Op{
			delay, {Kind: "send", Ch: "q0"}, {Kind: "send", Ch: "q1"},
			{Kind: "release", Ch: "s0"}, {Kind: "acquire", Ch: "s1"},
		}},
	)
	return w
}

// TestNewSessionChannelAllocs is TestNewSessionAllocs for a workload with
// channels: building the two queues and two semaphores, and a run that
// blocks on each of them, stay within fixed allocation counts under
// every personality.
func TestNewSessionChannelAllocs(t *testing.T) {
	want := map[string][2]float64{ // personality → build, run
		"generic": {36, 45},
		"itron":   {29, 40},
		"osek":    {28, 37},
	}
	for _, pers := range []string{"generic", "itron", "osek"} {
		for _, n := range []int{8, 32} {
			w := channelWorkload(n, pers)
			build := testing.AllocsPerRun(20, func() {
				if _, err := NewSession(w); err != nil {
					t.Fatal(err)
				}
			})
			run := testing.AllocsPerRun(20, func() {
				s, err := NewSession(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntil(w.Horizon); err != nil {
					t.Fatal(err)
				}
				res := s.Finish()
				for _, tr := range res.Tasks[n:] {
					if !tr.Terminated {
						t.Fatalf("%s: task %s did not terminate", pers, tr.Name)
					}
				}
			})
			if got := [2]float64{build, run}; got != want[pers] {
				t.Errorf("%s, %d tasks: NewSession allocates %.0f times and a whole run %.0f, want %.0f and %.0f",
					pers, n, build, run, want[pers][0], want[pers][1])
			}
		}
	}
}

// TestNewSessionRejectsMalformedChannels: a queue capacity below 1 or a
// negative semaphore count fails the build under every personality, with
// an error naming the channel — the rule the goroutine kernel's
// constructors and the SDL and simcheck validators apply.
func TestNewSessionRejectsMalformedChannels(t *testing.T) {
	cases := []struct {
		ch   ChannelDef
		want string
	}{
		{ChannelDef{Name: "q", Kind: "queue", Arg: 0}, `queue "q" capacity 0 < 1`},
		{ChannelDef{Name: "s", Kind: "semaphore", Arg: -1}, `semaphore "s" initial count -1 < 0`},
	}
	for _, pers := range []string{"generic", "itron", "osek"} {
		for _, c := range cases {
			w := periodicWorkload(1, pers)
			w.Channels = []ChannelDef{c.ch}
			_, err := NewSession(w)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %+v: NewSession error %v, want one containing %q", pers, c.ch, err, c.want)
			}
		}
	}
}
