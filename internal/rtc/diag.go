package rtc

import "repro/internal/core"

// fWatchdogBody is core.OS.EnableWatchdog's daemon loop as a machine
// body: its periodic timer keeps firing (and so keeps advancing
// simulated time) until every task terminates, exactly like the
// goroutine watchdog — which is what makes End times match. The verdict
// is core.Watchdog's.
type fWatchdogBody struct {
	window Time
	wd     core.Watchdog
	pc     int
}

func (f *fWatchdogBody) step(m *machine) status {
	os := m.k.os
	diagnose := func() *core.DiagnosisError {
		return os.WatchdogDiagnose(os.k.now, f.window, os.k.timers.Len(), os.daemon)
	}
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			m.sleep(f.window)
			return statBlocked
		case 1:
			if os.AllTasksDone() {
				return statDone
			}
			if d := f.wd.Check(os.Progress(), diagnose); d != nil {
				os.RecordDiagnosis(d)
				os.k.fail(d)
				return statDone
			}
			f.pc = 0
		}
	}
}
