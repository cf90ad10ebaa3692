package main

import (
	"fmt"
	"math"
)

// selfCheck runs every workload twice on this binary with the same seed and
// prints, per workload and end-to-end metric, the relative A/A difference
// beside the metric's bound. It fails when a difference exceeds its bound or
// a run fails its own checks. The table it prints is the stated variance in
// README.md.
func selfCheck(defs []workloadDef, cfg runCfg) bool {
	cfg.traced = false
	ok := true
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "|A-B|/A", "bound")
	for _, w := range defs {
		a := runWorkload(w, cfg, false)
		b := runWorkload(w, cfg, false)
		for _, r := range []*report{a, b} {
			for _, p := range r.problems {
				fmt.Printf("%-12s PROBLEM: %s\n", w.name, p)
				ok = false
			}
		}
		for _, s := range endToEnd {
			va, vb := a.values[s.name], b.values[s.name]
			diff := 0.0
			if va != vb {
				diff = math.Abs(va-vb) / math.Abs(va)
			}
			verdict := ""
			if diff > s.bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w.name, s.name, va, vb, 100*diff, 100*s.bound, verdict)
		}
	}
	return ok
}
