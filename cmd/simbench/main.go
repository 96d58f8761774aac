// Command simbench runs the performance harnesses (internal/perf) and
// reports ns/op, allocs/op and throughput metrics for each scenario. The
// results can be written as a machine-readable document and gated
// against a committed baseline.
//
// Usage:
//
//	simbench                          run and print the kernel scenario table
//	simbench -suite dse               run the design-space-exploration suite
//	                                  (configs/s cold vs memoized, checkpoint
//	                                  snapshot/restore cost; BENCH_dse.json)
//	simbench -out BENCH_kernel.json   also write the JSON document
//	simbench -check                   compare against -baseline and exit 1
//	                                  on regression (allocs/op above the
//	                                  baseline, or ns/op beyond -tolerance)
//
// The alloc gate is exact: allocation counts are deterministic, so any
// increase over baseline fails regardless of tolerance. They are
// deterministic for a given GOMAXPROCS only — the goroutine kernel's
// channel hand-offs draw on the runtime's per-P caches — so a document
// records the GOMAXPROCS it was measured at and -check runs at that
// setting. The time gate is relative: -tolerance 0.5 allows ns/op up to
// 1.5x baseline, absorbing host noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/perf"
)

func main() {
	var (
		suite     = flag.String("suite", "kernel", "scenario suite: kernel or dse")
		out       = flag.String("out", "", "write the benchmark document to this file")
		baseline  = flag.String("baseline", "", "baseline document for -check (default BENCH_kernel.json or BENCH_dse.json per -suite)")
		check     = flag.Bool("check", false, "compare against -baseline and fail on regression")
		tolerance = flag.Float64("tolerance", 0.5, "relative ns/op tolerance for -check")
		engine    = flag.String("engine", "", "kernel suite only; restrict to one execution engine: goroutine (skips rtc/* scenarios) or rtc (only rtc/*)")
	)
	flag.Parse()

	var keep func(string) bool
	switch *engine {
	case "":
	case "goroutine":
		keep = func(name string) bool { return !strings.HasPrefix(name, "rtc/") }
	case "rtc":
		keep = func(name string) bool { return strings.HasPrefix(name, "rtc/") }
	default:
		fmt.Fprintf(os.Stderr, "simbench: unknown engine %q (have \"goroutine\", \"rtc\")\n", *engine)
		os.Exit(2)
	}

	var schema string
	switch *suite {
	case "kernel":
		if *baseline == "" {
			*baseline = "BENCH_kernel.json"
		}
		schema = perf.Schema
	case "dse":
		if *engine != "" {
			fmt.Fprintln(os.Stderr, "simbench: -engine applies to the kernel suite only")
			os.Exit(2)
		}
		if *baseline == "" {
			*baseline = "BENCH_dse.json"
		}
		schema = perf.DSESchema
	default:
		fmt.Fprintf(os.Stderr, "simbench: unknown suite %q (have \"kernel\", \"dse\")\n", *suite)
		os.Exit(2)
	}

	var base perf.Report
	if *check {
		var err error
		if base, err = perf.LoadAs(*baseline, schema); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		if base.GOMAXPROCS > 0 {
			runtime.GOMAXPROCS(base.GOMAXPROCS)
		}
	}

	var rep perf.Report
	if *suite == "kernel" {
		rep = perf.CollectOnly(keep)
	} else {
		rep = perf.CollectDSE()
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "SCENARIO\tNS/OP\tB/OP\tALLOCS/OP\tSWITCHES/S\tEXTRA")
	for _, s := range rep.Scenarios {
		sw := "-"
		if s.SwitchesPerSec > 0 {
			sw = fmt.Sprintf("%.0f", s.SwitchesPerSec)
		}
		extra := "-"
		if len(s.Extra) > 0 {
			names := make([]string, 0, len(s.Extra))
			for name := range s.Extra {
				names = append(names, name)
			}
			sort.Strings(names)
			var parts []string
			for _, name := range names {
				parts = append(parts, fmt.Sprintf("%s=%.2f", name, s.Extra[name]))
			}
			extra = strings.Join(parts, " ")
		}
		fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\t%s\t%s\n", s.Name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, sw, extra)
	}
	w.Flush()

	if *out != "" {
		if err := rep.Write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *check {
		if keep != nil {
			// The baseline covers both engines; a restricted run must not
			// flag the other engine's scenarios as missing.
			var kept []perf.Result
			for _, s := range base.Scenarios {
				if keep(s.Name) {
					kept = append(kept, s)
				}
			}
			base.Scenarios = kept
		}
		violations := perf.Compare(rep, base, *tolerance)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "REGRESSION:", v)
			}
			os.Exit(1)
		}
		fmt.Printf("check passed: %d scenarios within tolerance %.0f%% of %s (GOMAXPROCS %d)\n",
			len(base.Scenarios), *tolerance*100, *baseline, rep.GOMAXPROCS)
	}
}
