// Command abacus-workload compiles, inspects, and materializes declarative
// workload specs (internal/workload).
//
// Usage:
//
//	abacus-workload -validate examples/workloads/*.json   # parse+bind+round-trip
//	abacus-workload -spec flash-crowd.json -summary       # offered-load digest
//	abacus-workload -spec flash-crowd.json -o flash.trace # materialize tracev2
//	abacus-workload -check flash.trace                    # verify a tracev2 file
//
// The deployment each spec binds against comes from -models, widened and
// overridden by the spec's own pinned model names, so specs that say what
// they serve validate with no extra flags.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"abacus/internal/cli"
	"abacus/internal/dnn"
	"abacus/internal/workload"
)

var fail = cli.Failer("abacus-workload")

func main() {
	validate := flag.Bool("validate", false, "validate the spec files given as arguments: parse, bind, materialize, tracev2 round-trip")
	specFile := flag.String("spec", "", "JSON workload spec file to summarize or materialize")
	summary := flag.Bool("summary", false, "print the per-service offered-load digest for -spec")
	outFile := flag.String("o", "", "materialize -spec and write the tracev2 file here")
	checkFile := flag.String("check", "", "verify a tracev2 file's checksum and row invariants")
	modelsFlag := flag.String("models", "Res152,IncepV3", "deployment model names; specs widen and override this with their pinned models")
	seed := flag.Int64("seed", 1, "seed used when the spec leaves its own seed 0")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}

	switch {
	case *validate:
		if flag.NArg() == 0 {
			fail(fmt.Errorf("-validate needs spec files as arguments"))
		}
		bad := false
		for _, path := range flag.Args() {
			if err := validateSpec(path, *modelsFlag, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "abacus-workload: %s: %v\n", path, err)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
	case *checkFile != "":
		f, err := os.Open(*checkFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		meta, arrivals, err := workload.ReadTrace(f)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: ok — %q seed %d, %d arrivals over %s ms across %d services\n",
			*checkFile, meta.Name, meta.Seed, len(arrivals), fmtF(meta.DurationMS), meta.Services)
	case *specFile != "":
		c, err := compileFile(*specFile, *modelsFlag, *seed)
		if err != nil {
			fail(err)
		}
		if *summary || *outFile == "" {
			printSummary(c)
		}
		if *outFile != "" {
			arrivals := c.Materialize()
			meta := workload.Meta{
				Name: c.Spec.Name, Seed: c.Seed,
				DurationMS: c.Spec.DurationMS, Services: len(c.Models),
			}
			f, err := os.Create(*outFile)
			if err != nil {
				fail(err)
			}
			if err := workload.WriteTrace(f, meta, arrivals); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("%s: %d arrivals\n", *outFile, len(arrivals))
		}
	default:
		fail(fmt.Errorf("nothing to do: pass -validate, -spec, or -check (see -h)"))
	}
}

// compileFile parses a spec file and binds it against the deployment implied
// by -models plus the spec's own model pins.
func compileFile(path, modelsFlag string, seed int64) (*workload.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := workload.Parse(data)
	if err != nil {
		return nil, err
	}
	models, err := deployment(spec, modelsFlag)
	if err != nil {
		return nil, err
	}
	return spec.Bind(models, seed)
}

// deployment widens the -models list to cover every service index the spec
// references and overrides entries with the spec's pinned model names.
func deployment(spec *workload.Spec, modelsFlag string) ([]dnn.ModelID, error) {
	models, err := cli.ParseModels(modelsFlag)
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

// validateSpec runs the full pipeline on one file: parse, bind, materialize,
// and a tracev2 write→read→write round trip that must be byte-identical.
func validateSpec(path, modelsFlag string, seed int64) error {
	c, err := compileFile(path, modelsFlag, seed)
	if err != nil {
		return err
	}
	arrivals := c.Materialize()
	meta := workload.Meta{
		Name: c.Spec.Name, Seed: c.Seed,
		DurationMS: c.Spec.DurationMS, Services: len(c.Models),
	}
	var first bytes.Buffer
	if err := workload.WriteTrace(&first, meta, arrivals); err != nil {
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
	fmt.Printf("%s: ok — %d arrivals, mean %s qps, tracev2 round-trip clean\n",
		path, len(arrivals), fmtF(mean))
	return nil
}

func printSummary(c *workload.Compiled) {
	fmt.Printf("workload %q seed %d, %s ms\n", c.Spec.Name, c.Seed, fmtF(c.Spec.DurationMS))
	for _, s := range c.Summary() {
		fmt.Printf("  svc %d %s: mean %s qps, peak %s qps\n",
			s.Service, s.Model, fmtF(s.MeanQPS), fmtF(s.PeakQPS))
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
