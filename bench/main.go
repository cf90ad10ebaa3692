// Command bench is the repository's one benchmark: four long workloads
// across both clocks, thirteen end-to-end metrics, and a traced pass that
// gives a per-layer budget. BENCHMARK.json at the repository root declares
// it; README.md in this directory says what each number means.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	bench --selfcheck
//
// With --trace 0 a run prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it prints the per-layer metrics and writes the spans
// to --trace-out. Without --workload every workload runs in turn. The last
// line of standard output is always one JSON object for the driver; the exit
// code is non-zero when a correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up at least minSetups times, and up to maxSetups
// while that has taken less than setupBudget: setup_s is the median, the
// first set-up counted from process start. The two gateway-free workloads set
// up in under a second, where a median of three still moves by a quarter.
const (
	minSetups   = 3
	maxSetups   = 5
	setupBudget = 4 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all four in turn)")
	seed := flag.Int64("seed", 1, "seed the generated load derives from")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: run the traced per-layer pass instead of the end-to-end one")
	traceOut := flag.String("trace-out", "", "where the traced pass writes its spans (default .bench_build/trace-WORKLOAD.json)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--selfcheck]")
		os.Exit(2)
	}
	defs := workloadDefs
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		defs = []workloadDef{w}
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, scale: 1, traced: *trace == 1}

	if *selfcheck {
		if !selfCheck(defs, cfg) {
			os.Exit(1)
		}
		return
	}
	ok := true
	table := cfg.table()
	for i, w := range defs {
		c := cfg
		if c.traced {
			c.traceOut = *traceOut
			if c.traceOut == "" {
				c.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
			}
		}
		r := runWorkload(w, c, i == 0)
		fmt.Print(r.text(table))
		fmt.Println(r.resultLine(table))
		ok = ok && len(r.problems) == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, runs the pass cfg asks for, and returns
// the checked report. fromStart says this is the process's first workload,
// whose first set-up is counted from process start.
func runWorkload(w workloadDef, cfg runCfg, fromStart bool) *report {
	r := newReport(w.name)
	least, most := minSetups, maxSetups
	if cfg.traced {
		least, most = 1, 1
	}
	var inst instance
	var setups []float64
	begun := time.Now()
	for i := 0; i < most && (i < least || time.Since(begun) < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if i == 0 && fromStart {
			t0 = processStart
		}
		var err error
		if inst, err = w.setup(cfg); err != nil {
			r.problem("set-up: %v", err)
			r.check(nil)
			return r
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	if cfg.traced {
		inst.layers(r)
		// A layer metric a workload has nothing to say about reads zero.
		for _, s := range perLayer {
			if _, ok := r.values[s.name]; !ok {
				r.values[s.name] = 0
			}
		}
	} else {
		inst.measure(r)
		r.set("setup_s", median(setups))
		r.set("heap_mb", heapMB())
	}
	r.check(cfg.table())
	return r
}
