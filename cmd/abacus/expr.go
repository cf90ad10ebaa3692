package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"abacus"
)

// exprCmd regenerates the paper's figures on the simulated substrate and
// prints them as tables.
//
//	abacus expr -exp fig14            # one figure at paper scale
//	abacus expr -exp all -quick       # every figure, reduced workloads
//	abacus expr -list                 # available experiment ids
func exprCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	exp := fs.String("exp", "all", "experiment id, comma-separated list, or 'all' (see -list)")
	quick := fs.Bool("quick", false, "reduced workloads (seconds instead of minutes)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallelFlag(fs)
	return func(stdout, _ io.Writer) error {
		if *list {
			for _, id := range abacus.ExperimentIDs() {
				fmt.Fprintln(stdout, id)
			}
			return nil
		}
		ids := strings.Split(*exp, ",")
		if *exp == "all" {
			ids = abacus.ExperimentIDs()
		}
		for _, id := range ids {
			start := time.Now()
			if err := abacus.RunExperiment(id, *quick, stdout); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
		}
		return nil
	}
}
