package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Counters the benchmark reads from outside the program under test: the
// Go runtime's own metrics and the kernel's per-process I/O accounting.
const (
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmSchedLat  = "/sched/latencies:seconds"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
)

// counters is one reading of every outside counter, or the sum of
// differences between readings (see add).
type counters struct {
	gcCPU, totalCPU, mutexWait float64
	gcCycles                   uint64
	schedBuckets               []float64
	schedCounts                []uint64
	io                         map[string]int64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmGCCycles}, {Name: rmSchedLat}, {Name: rmMutexWait}}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return counters{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		gcCycles:     s[2].Value.Uint64(),
		schedBuckets: h.Buckets,
		schedCounts:  append([]uint64(nil), h.Counts...),
		mutexWait:    s[4].Value.Float64(),
		io:           readProcIO(),
	}
}

// add accumulates the counter differences b - a, over several intervals
// (the untraced blocks of a traced run).
func (d *counters) add(a, b counters) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.mutexWait += b.mutexWait - a.mutexWait
	d.gcCycles += b.gcCycles - a.gcCycles
	if d.schedCounts == nil {
		d.schedBuckets = b.schedBuckets
		d.schedCounts = make([]uint64, len(b.schedCounts))
	}
	for i := range b.schedCounts {
		d.schedCounts[i] += b.schedCounts[i] - a.schedCounts[i]
	}
	if d.io == nil {
		d.io = map[string]int64{}
	}
	for k, v := range b.io {
		d.io[k] += v - a.io[k]
	}
}

// schedP50 returns the median goroutine run-queue wait in seconds: the
// upper edge of the histogram bucket holding the 50th percentile (its
// lower edge for the open-ended last bucket).
func (d *counters) schedP50() float64 {
	var n uint64
	for _, c := range d.schedCounts {
		n += c
	}
	if n == 0 {
		return 0
	}
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if 2*cum >= n {
			if up := d.schedBuckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return d.schedBuckets[i]
		}
	}
	return 0
}

// readProcIO parses /proc/self/io (rchar, wchar, syscr, syscw, ...).
// Missing or unreadable accounting reads as empty: the I/O metrics then
// report 0 rather than failing the run.
func readProcIO() map[string]int64 {
	m := map[string]int64{}
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return m
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
			m[k] = n
		}
	}
	return m
}

// fsType names the filesystem holding dir, and whether it is memory
// backed.
func fsType(dir string) (name string, memory bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs", true
	case 0x858458f6:
		return "ramfs", true
	case 0xef53:
		return "ext4", false
	case 0x58465342:
		return "xfs", false
	case 0x9123683e:
		return "btrfs", false
	case 0x794c7630:
		return "overlayfs", false
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type)), false
	}
}

// cpuTime returns the CPU time every thread of the process has used,
// user and system. The kernel leaves out the time a hypervisor ran
// something else on the guest's CPUs (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCPUStat returns the host-wide steal and total CPU ticks from
// /proc/stat: time a hypervisor ran something else on the guest's
// virtual CPUs, the main source of run-to-run drift on a shared host.
func readCPUStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
