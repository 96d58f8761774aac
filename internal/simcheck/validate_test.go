package simcheck

import (
	"strings"
	"testing"
)

// TestValidateRejectsMalformedChannels: a queue capacity below 1 (even on
// a queue nobody uses, which the goroutine kernel's constructor rejects)
// and a negative semaphore count are invalid, with errors naming the
// channel.
func TestValidateRejectsMalformedChannels(t *testing.T) {
	cases := []struct {
		ch   ChannelSpec
		want string
	}{
		{ChannelSpec{Name: "q", Kind: "queue", Arg: 0}, `queue "q" capacity 0 < 1`},
		{ChannelSpec{Name: "s", Kind: "semaphore", Arg: -1}, `semaphore "s" initial count -1 < 0`},
	}
	for _, c := range cases {
		s := Scenario{
			Tasks:    []TaskSpec{{Name: "a", Type: "aperiodic", Ops: []Op{{Kind: OpDelay, Dur: 1}}}},
			Channels: []ChannelSpec{c.ch},
		}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Validate error %v, want one containing %q", c.ch, err, c.want)
		}
	}
}
