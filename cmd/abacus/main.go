// Command abacus drives the reproduction from the command line: one binary,
// one subcommand per surface, each flag concept spelled and defaulted once.
//
// Usage:
//
//	abacus <command> [flags]
//	abacus <command> -h        # the command's flags
//	abacus -version
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	"abacus/internal/runner"
)

// command is one subcommand. setup defines the command's flags on fs and
// returns the action that runs once they are parsed; the action reads its
// positional arguments from fs.Args().
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

var commands = []command{
	{"expr", "regenerate the paper's figures as tables", exprCmd},
	{"serve", "single-GPU serving simulation under one scheduler", serveCmd},
	{"train", "offline profiling and duration-model training", trainCmd},
	{"cluster", "MAF-like trace replay, KubeAbacus vs Clockwork", clusterCmd},
	{"models", "model-zoo inspection: operator profiles, solo latencies", modelsCmd},
	{"gateway", "online HTTP serving with admission control", gatewayCmd},
	{"loadgen", "open- and closed-loop HTTP load against a gateway", loadgenCmd},
	{"chaos", "deterministic fault-injection scenarios with QoS floors", chaosCmd},
	{"workload", "workload specs: validate, summarize, materialize tracev2", workloadCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args to a command and returns the process exit status: 0 on
// success, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("abacus", flag.ContinueOnError)
	top.SetOutput(stderr)
	showVersion := top.Bool("version", false, "print version and exit")
	top.Usage = func() { usage(stderr) }
	if err := top.Parse(args); err != nil {
		return exitStatus(err)
	}
	if *showVersion {
		fmt.Fprintln(stdout, version())
		return 0
	}
	if top.NArg() == 0 {
		usage(stderr)
		return 2
	}
	name := top.Arg(0)
	for _, c := range commands {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet("abacus "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		action := c.setup(fs)
		if err := fs.Parse(top.Args()[1:]); err != nil {
			return exitStatus(err)
		}
		if p := fs.Lookup("parallel"); p != nil {
			// Library sweeps that take no width argument use runner's default.
			runner.SetDefaultParallel(p.Value.(flag.Getter).Get().(int))
		}
		if err := action(stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "abacus %s: %v\n", name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "abacus: unknown command %q\n", name)
	usage(stderr)
	return 2
}

// exitStatus maps a flag-parsing error to an exit status: -h is a success,
// anything else a usage error (the flag package has already said what).
func exitStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: abacus <command> [flags]    (abacus <command> -h lists its flags)")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\n  -version  print version and exit")
}

// version reports the module version and toolchain, read from the build info
// stamped into the executable.
func version() string {
	v := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		v = bi.Main.Version
	}
	return fmt.Sprintf("abacus %s %s", v, runtime.Version())
}
