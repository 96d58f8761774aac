package rtc

// BuildSize exposes the first slab chunk sizes of a workload's build.
var BuildSize = buildSize

// Population reports how many tasks and machines a session holds so far.
func Population(s *Session) (tasks, machines int) {
	return len(s.os.tasks), len(s.k.machines)
}
