package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
)

// modelsCmd inspects the DNN model zoo: summary statistics per model,
// per-operator cost profiles, and solo latencies on the simulated device —
// the information the paper's offline profiling phase gathers.
//
//	abacus models                          # zoo summary
//	abacus models -model Res152 -batch 32  # per-operator profile
//	abacus models -model Bert -batch 8 -seqlen 64 -csv ops.csv
func modelsCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	model := fs.String("model", "", "model to profile (empty: zoo summary)")
	batch := fs.Int("batch", 32, "batch size")
	seqlen := fs.Int("seqlen", 64, "sequence length (sequence models)")
	csvOut := fs.String("csv", "", "write the per-operator profile as CSV")
	return func(stdout, _ io.Writer) error {
		p := gpusim.A100Profile()
		if *model == "" {
			summary(stdout, p)
			return nil
		}
		id, err := dnn.ModelIDByName(*model)
		if err != nil {
			return err
		}
		m := dnn.Get(id)
		in := dnn.Input{Batch: *batch}
		if m.IsSequence() {
			in.SeqLen = *seqlen
		}
		if err := m.CheckInput(in); err != nil {
			return err
		}

		if *csvOut != "" {
			if err := writeFile(*csvOut, func(w io.Writer) error { return m.WriteProfileCSV(w, in, p) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d operator rows to %s\n", m.NumOps(), *csvOut)
			return nil
		}

		m.WriteProfile(stdout, in, p)
		s := m.Summarize(in, p)
		fmt.Fprintf(stdout, "\n%s @ %+v: %d ops, %.1f GFLOPs, %.1f MB traffic, %.2f ms exclusive, %.1f MB weights\n",
			m.Name, in, s.Ops, s.FLOPs/1e9, s.Bytes/(1<<20), s.TotalMS, s.ParamBytes/(1<<20))
		kinds := make([]dnn.OpKind, 0, len(s.KindMS))
		for k := range s.KindMS {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return s.KindMS[kinds[i]] > s.KindMS[kinds[j]] })
		for _, k := range kinds {
			fmt.Fprintf(stdout, "  %-14s %6.2f ms (%.0f%%)\n", k, s.KindMS[k], 100*s.KindMS[k]/s.TotalMS)
		}
		return nil
	}
}

func summary(w io.Writer, p gpusim.Profile) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tops\tparams(MB)\tGFLOPs(max)\tsolo min(ms)\tsolo max(ms)\tQoS 2x(ms)")
	for _, m := range dnn.All() {
		minIn, maxIn := m.MinInput(), m.MaxInput()
		soloMin := dnn.SoloLatency(m, minIn, p)
		soloMax := dnn.SoloLatency(m, maxIn, p)
		transfer := dnn.TransferTime(m, maxIn, p)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.1f\n",
			m.Name, m.NumOps(), m.ParamBytes()/(1<<20), m.FLOPs(maxIn)/1e9,
			soloMin, soloMax, 2*(soloMax+transfer))
	}
	tw.Flush()
}
