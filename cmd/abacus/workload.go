package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"

	"abacus/internal/dnn"
	"abacus/internal/workload"
)

// workloadCmd compiles, inspects, and materializes declarative workload
// specs (internal/workload).
//
//	abacus workload -validate examples/workloads/*.json   # parse+bind+round-trip
//	abacus workload -spec flash-crowd.json -summary       # offered-load digest
//	abacus workload -spec flash-crowd.json -o flash.trace # materialize tracev2
//	abacus workload -check flash.trace                    # verify a tracev2 file
//
// The deployment each spec binds against comes from -models, widened and
// overridden by the spec's own pinned model names, so specs that say what
// they serve validate with no extra flags.
func workloadCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	validate := fs.Bool("validate", false, "validate the spec files given as arguments: parse, bind, materialize, tracev2 round-trip")
	specFile := fs.String("spec", "", "JSON workload spec file to summarize or materialize")
	summary := fs.Bool("summary", false, "print the per-service offered-load digest for -spec")
	outFile := fs.String("o", "", "materialize -spec and write the tracev2 file here")
	checkFile := fs.String("check", "", "verify a tracev2 file's checksum and row invariants")
	modelsList := modelsFlag(fs, "Res152,IncepV3")
	seed := fs.Int64("seed", 1, "seed used when the spec leaves its own seed 0")
	return func(stdout, stderr io.Writer) error {
		switch {
		case *validate:
			if fs.NArg() == 0 {
				return fmt.Errorf("-validate needs spec files as arguments")
			}
			bad := 0
			for _, path := range fs.Args() {
				if err := validateSpec(stdout, path, *modelsList, *seed); err != nil {
					fmt.Fprintf(stderr, "abacus workload: %s: %v\n", path, err)
					bad++
				}
			}
			if bad > 0 {
				return fmt.Errorf("%d of %d specs failed validation", bad, fs.NArg())
			}
		case *checkFile != "":
			meta, arrivals, err := readTrace(*checkFile)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: ok — %q seed %d, %d arrivals over %s ms across %d services\n",
				*checkFile, meta.Name, meta.Seed, len(arrivals), fmtF(meta.DurationMS), meta.Services)
		case *specFile != "":
			c, err := compileFile(*specFile, *modelsList, *seed)
			if err != nil {
				return err
			}
			if *summary || *outFile == "" {
				printSummary(stdout, fmt.Sprintf("workload %q seed %d, %s ms", c.Spec.Name, c.Seed, fmtF(c.Spec.DurationMS)), c)
			}
			if *outFile != "" {
				arrivals := c.Materialize()
				if err := writeTrace(*outFile, traceMeta(c), arrivals); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%s: %d arrivals\n", *outFile, len(arrivals))
			}
		default:
			return fmt.Errorf("nothing to do: pass -validate, -spec, or -check (see -h)")
		}
		return nil
	}
}

// compileFile parses a spec file and binds it against the deployment implied
// by -models plus the spec's own model pins.
func compileFile(path, modelsList string, seed int64) (*workload.Compiled, error) {
	spec, err := loadSpec(path)
	if err != nil {
		return nil, err
	}
	models, err := deployment(spec, modelsList)
	if err != nil {
		return nil, err
	}
	return spec.Bind(models, seed)
}

// deployment widens the -models list to cover every service index the spec
// references and overrides entries with the spec's pinned model names.
func deployment(spec *workload.Spec, modelsList string) ([]dnn.ModelID, error) {
	models, err := parseModels(modelsList)
	if err != nil {
		return nil, err
	}
	type ref struct {
		svc  int
		name string
	}
	var refs []ref
	for _, sv := range spec.Services {
		refs = append(refs, ref{sv.Service, sv.Model})
	}
	for _, co := range spec.Cohorts {
		refs = append(refs, ref{co.Service, co.Model})
	}
	for _, r := range refs {
		for r.svc >= len(models) {
			models = append(models, models[len(models)%2]) // pad; pins below overwrite
		}
		if r.name != "" {
			id, err := dnn.ModelIDByName(r.name)
			if err != nil {
				return nil, err
			}
			models[r.svc] = id
		}
	}
	return models, nil
}

// traceMeta is the tracev2 provenance of a compiled spec's materialization.
func traceMeta(c *workload.Compiled) workload.Meta {
	return workload.Meta{Name: c.Spec.Name, Seed: c.Seed, DurationMS: c.Spec.DurationMS, Services: len(c.Models)}
}

// validateSpec runs the full pipeline on one file: parse, bind, materialize,
// and a tracev2 write→read→write round trip that must be byte-identical.
func validateSpec(stdout io.Writer, path, modelsList string, seed int64) error {
	c, err := compileFile(path, modelsList, seed)
	if err != nil {
		return err
	}
	arrivals := c.Materialize()
	var first bytes.Buffer
	if err := workload.WriteTrace(&first, traceMeta(c), arrivals); err != nil {
		return fmt.Errorf("tracev2 write: %w", err)
	}
	meta2, arrivals2, err := workload.ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		return fmt.Errorf("tracev2 read-back: %w", err)
	}
	var second bytes.Buffer
	if err := workload.WriteTrace(&second, meta2, arrivals2); err != nil {
		return fmt.Errorf("tracev2 re-write: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("tracev2 round trip is not byte-identical")
	}
	mean := float64(len(arrivals)) / (c.Spec.DurationMS / 1000)
	fmt.Fprintf(stdout, "%s: ok — %d arrivals, mean %s qps, tracev2 round-trip clean\n",
		path, len(arrivals), fmtF(mean))
	return nil
}

// printSummary prints header and then the per-service offered-load digest.
func printSummary(w io.Writer, header string, c *workload.Compiled) {
	fmt.Fprintln(w, header)
	for _, s := range c.Summary() {
		fmt.Fprintf(w, "  svc %d %s: mean %s qps, peak %s qps\n",
			s.Service, s.Model, fmtF(s.MeanQPS), fmtF(s.PeakQPS))
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
