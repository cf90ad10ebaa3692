package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"abacus"
	"abacus/internal/chaos"
	"abacus/internal/dnn"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// runCmd drives the dispatcher in-process and returns its exit status and
// both streams.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"no-such-command"}} {
		code, _, stderr := runCmd(args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("%q: usage does not list %s:\n%s", args, c.name, stderr)
			}
		}
	}
	if code, stdout, _ := runCmd("-version"); code != 0 || stdout != version()+"\n" {
		t.Errorf("-version: exit %d, stdout %q", code, stdout)
	}
	if code, _, _ := runCmd("chaos", "-h"); code != 0 {
		t.Errorf("chaos -h: exit %d, want 0", code)
	}
	if code, _, _ := runCmd("chaos", "-no-such-flag"); code != 2 {
		t.Errorf("chaos -no-such-flag: exit %d, want 2", code)
	}
}

func TestChaosJSONMatchesLibrary(t *testing.T) {
	sc, ok := chaos.Lookup("baseline")
	if !ok {
		t.Fatal("no baseline scenario")
	}
	rep, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent([]*chaos.Report{rep}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd("chaos", "-scenario", "baseline", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != string(want)+"\n" {
		t.Errorf("chaos -json differs from chaos.Run's report:\n%s\nwant:\n%s", stdout, want)
	}
}

func TestWorkloadValidatesExamples(t *testing.T) {
	specs, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	code, stdout, stderr := runCmd(append([]string{"workload", "-validate"}, specs...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, ": ok — "); n != len(specs) {
		t.Errorf("%d of %d specs reported ok:\n%s", n, len(specs), stdout)
	}
}

func TestExprList(t *testing.T) {
	code, stdout, _ := runCmd("expr", "-list")
	if want := strings.Join(abacus.ExperimentIDs(), "\n") + "\n"; code != 0 || stdout != want {
		t.Errorf("expr -list: exit %d\n%s\nwant:\n%s", code, stdout, want)
	}
}

// TestLoadgenRejectsBadFlagsOffline points loadgen at an address nothing
// listens on: each bad flag combination must fail on its own message, which
// it can only do before the first connection attempt.
func TestLoadgenRejectsBadFlagsOffline(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-drop", "-0.5"}, "-drop -0.5 outside [0, 1]"},
		{[]string{"-drop", "1.5"}, "-drop 1.5 outside [0, 1]"},
		{[]string{"-trace", "a.tv2", "-spec", "b.json"}, "-trace and -spec are mutually exclusive"},
		{[]string{"-think-ms", "200"}, "-think-ms only applies to -closed mode"},
		{[]string{"-closed", "-think-ms", "200", "-think-dist", "uniform"}, "think"},
	}
	for _, tc := range cases {
		code, _, stderr := runCmd(append([]string{"loadgen", "-target", "http://127.0.0.1:1"}, tc.args...)...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 1 mentioning %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestPrintStatsSumsToSent renders a row with every outcome class non-zero:
// the disjoint counters it prints must add up to sent.
func TestPrintStatsSumsToSent(t *testing.T) {
	s := server.LoadStats{
		Accepted: 10, Completed: 8, Violated: 1, Dropped: 2,
		RejectedDeadline: 3, RejectedQueue: 4, RejectedDegraded: 5,
		Unavailable: 6, Errors: 7, DecodeErrors: 9,
	}
	s.Sent = s.Accepted + s.RejectedDeadline + s.RejectedQueue + s.RejectedDegraded +
		s.Unavailable + s.Errors + s.DecodeErrors
	var buf bytes.Buffer
	printStats(&buf, "TOTAL", &s)
	sum := 0
	for _, m := range regexp.MustCompile(`([\w()/-]+)=([\d/]+)`).FindAllStringSubmatch(buf.String(), -1) {
		switch m[1] {
		case "sent", "completed", "violated", "dropped": // sent is the total; the rest lie inside accepted
			continue
		}
		for _, v := range strings.Split(m[2], "/") {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s=%s: %v", m[1], m[2], err)
			}
			sum += n
		}
	}
	if sum != s.Sent {
		t.Errorf("printed counters sum to %d, sent=%d:\n%s", sum, s.Sent, buf.String())
	}
}

// TestReplayChecksServedEnvelope replays tracev2 files that the reader
// accepts but the deployment cannot serve.
func TestReplayChecksServedEnvelope(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, services int, in dnn.Input) string {
		path := filepath.Join(dir, name)
		meta := workload.Meta{Name: name, Seed: 1, DurationMS: 100, Services: services}
		rows := []trace.Arrival{{Time: 1, Service: 0, Input: dnn.Input{Batch: 8}}, {Time: 2, Service: 1, Input: in}}
		if err := writeTrace(path, meta, rows); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		path, want string // want "" = the replay runs
	}{
		{write("batch", 2, dnn.Input{Batch: 64}), "batch 64 outside served range [4, 32]"},
		{write("seqlen", 2, dnn.Input{Batch: 8, SeqLen: 16}), `model "IncepV3" takes no sequence length`},
		{write("services", 3, dnn.Input{Batch: 8}), "spans 3 services, the deployment serves 2"},
		{write("ok", 2, dnn.Input{Batch: 8}), ""},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCmd("serve", "-trace", tc.path)
		if tc.want == "" {
			if code != 0 || !strings.Contains(stdout, "replaying 2 arrivals") {
				t.Errorf("%s: exit %d, stderr %q", tc.path, code, stderr)
			}
		} else if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 mentioning %q", tc.path, code, stderr, tc.want)
		}
	}
	if code, _, stderr := runCmd("models", "-model", "Res152", "-batch", "64"); code != 1 ||
		!strings.Contains(stderr, "batch 64 outside served range") {
		t.Errorf("models -batch 64: exit %d, stderr %q", code, stderr)
	}
}
