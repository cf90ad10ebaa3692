package executor

import (
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

func newExec(t *testing.T, syncCost float64) (*Executor, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	dev := gpusim.New(eng, gpusim.A100Profile())
	return New(dev, syncCost, nil), eng
}

func fullSpan(id dnn.ModelID, batch, seq int) predictor.Entry {
	return predictor.Entry{Model: id, OpStart: 0, OpEnd: dnn.Get(id).NumOps(), Batch: batch, SeqLen: seq}
}

func TestExecuteSingleQuery(t *testing.T) {
	exec, eng := newExec(t, 0)
	var finish sim.Time
	exec.Execute(predictor.Group{fullSpan(dnn.ResNet50, 8, 0)}, func() { finish = eng.Now() })
	if !exec.Busy() {
		t.Fatal("executor should be busy after Execute")
	}
	eng.Run()
	if exec.Busy() {
		t.Fatal("executor still busy after completion")
	}
	want := dnn.SoloLatency(dnn.Get(dnn.ResNet50), dnn.Input{Batch: 8}, gpusim.A100Profile())
	if diff := finish - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("group latency %v, want solo latency %v", finish, want)
	}
	if exec.Groups() != 1 {
		t.Errorf("Groups = %d, want 1", exec.Groups())
	}
}

func TestExecuteChargesSyncCost(t *testing.T) {
	const sync = 0.5
	exec, eng := newExec(t, sync)
	var finish sim.Time
	exec.Execute(predictor.Group{fullSpan(dnn.ResNet50, 8, 0)}, func() { finish = eng.Now() })
	eng.Run()
	want := dnn.SoloLatency(dnn.Get(dnn.ResNet50), dnn.Input{Batch: 8}, gpusim.A100Profile()) + sync
	if diff := finish - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("latency %v, want %v (incl. sync)", finish, want)
	}
}

func TestExecuteGroupMatchesMeasure(t *testing.T) {
	// The executor and the training-time Measure must agree: the predictor
	// is only valid if both run the identical code path.
	p := gpusim.A100Profile()
	g := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 10, OpEnd: 120, Batch: 16},
		{Model: dnn.Bert, OpStart: 0, OpEnd: 80, Batch: 8, SeqLen: 32},
	}
	want := predictor.Measure(g, p, 0, 0)

	exec, eng := newExec(t, 0)
	var finish sim.Time
	exec.Execute(g, func() { finish = eng.Now() })
	eng.Run()
	if diff := finish - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("executor latency %v != Measure %v", finish, want)
	}
}

func TestExecuteWhileBusyPanics(t *testing.T) {
	exec, _ := newExec(t, 0)
	exec.Execute(predictor.Group{fullSpan(dnn.ResNet50, 4, 0)}, func() {})
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	exec.Execute(predictor.Group{fullSpan(dnn.VGG16, 4, 0)}, func() {})
}

func TestExecuteInvalidGroupPanics(t *testing.T) {
	exec, _ := newExec(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	exec.Execute(predictor.Group{{Model: dnn.ResNet50, OpStart: 5, OpEnd: 2, Batch: 4}}, func() {})
}

func TestExecuteEmptyGroupCompletes(t *testing.T) {
	exec, eng := newExec(t, 0)
	done := false
	exec.Execute(predictor.Group{}, func() { done = true })
	eng.Run()
	if !done || exec.Busy() {
		t.Errorf("empty group: done=%v busy=%v", done, exec.Busy())
	}
}

func TestNegativeSyncCostPanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, gpusim.A100Profile())
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	New(dev, -1, nil)
}

func TestCheckpointAccounting(t *testing.T) {
	exec, eng := newExec(t, 0)
	m := dnn.Get(dnn.ResNet152)
	// Partial span: checkpoint = activation after op 99.
	g := predictor.Group{{Model: dnn.ResNet152, OpStart: 0, OpEnd: 100, Batch: 32}}
	exec.Execute(g, func() {})
	wantBytes := m.Ops[99].OutElems.Eval(dnn.Input{Batch: 32}) * 4
	if got := exec.CheckpointedBytes(); got != wantBytes {
		t.Errorf("CheckpointedBytes = %v, want %v", got, wantBytes)
	}
	eng.Run()

	// Completing the model frees the checkpoint.
	exec.Execute(predictor.Group{{Model: dnn.ResNet152, OpStart: 100, OpEnd: m.NumOps(), Batch: 32}}, func() {})
	if got := exec.CheckpointedBytes(); got != 0 {
		t.Errorf("CheckpointedBytes after completion = %v, want 0", got)
	}
	eng.Run()
	if exec.PeakCheckpointedBytes() != wantBytes {
		t.Errorf("Peak = %v, want %v", exec.PeakCheckpointedBytes(), wantBytes)
	}
	// §7.8: intermediates are tens of MB, small next to model weights.
	if mb := wantBytes / (1 << 20); mb > 64 {
		t.Errorf("checkpoint %v MB implausibly large", mb)
	}
}

func TestExclusiveLatencyMatchesSoloChain(t *testing.T) {
	p := gpusim.A100Profile()
	for _, id := range []dnn.ModelID{dnn.ResNet50, dnn.VGG19, dnn.Bert} {
		in := dnn.Get(id).MaxInput()
		want := dnn.SoloLatency(dnn.Get(id), in, p)
		got := ExclusiveLatency(id, in, p)
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%v: ExclusiveLatency %v != solo chain %v", id, got, want)
		}
	}
}

func TestBackToBackGroups(t *testing.T) {
	exec, eng := newExec(t, 0)
	count := 0
	var run func()
	run = func() {
		if count == 3 {
			return
		}
		count++
		exec.Execute(predictor.Group{fullSpan(dnn.ResNet50, 4, 0)}, run)
	}
	run()
	eng.Run()
	if count != 3 || exec.Groups() != 3 {
		t.Errorf("ran %d groups, executor says %d, want 3", count, exec.Groups())
	}
}

func TestGroupExecutionOverlapsAndSequentialDoesNot(t *testing.T) {
	// Trace-level proof of the mechanism: a two-query operator group
	// overlaps kernels on the device, while issuing the same spans
	// back-to-back leaves zero overlap.
	g := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: 120, Batch: 16},
		{Model: dnn.InceptionV3, OpStart: 0, OpEnd: 120, Batch: 16},
	}
	overlapped := func() float64 {
		exec, eng := newExec(t, 0)
		events := exec.Device().CollectTrace()
		exec.Execute(g, func() {})
		eng.Run()
		return gpusim.OverlapTime(*events, 2)
	}()
	sequential := func() float64 {
		exec, eng := newExec(t, 0)
		events := exec.Device().CollectTrace()
		exec.Execute(g[:1], func() {
			exec.Execute(g[1:], func() {})
		})
		eng.Run()
		return gpusim.OverlapTime(*events, 2)
	}()
	if sequential != 0 {
		t.Errorf("sequential issue produced %v ms of overlap", sequential)
	}
	if overlapped <= 1 {
		t.Errorf("group execution produced only %v ms of overlap", overlapped)
	}
}

func TestIdenticalGroupsProduceIdenticalTimelines(t *testing.T) {
	// §5.2 determinism at the kernel-timeline level: not just the same
	// makespan, the exact same schedule.
	g := predictor.Group{
		{Model: dnn.ResNet152, OpStart: 50, OpEnd: 250, Batch: 8},
		{Model: dnn.Bert, OpStart: 0, OpEnd: 100, Batch: 16, SeqLen: 32},
	}
	run := func() []gpusim.KernelEvent {
		exec, eng := newExec(t, 0)
		events := exec.Device().CollectTrace()
		exec.Execute(g, func() {})
		eng.Run()
		return *events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("timelines differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGroupRunPoolReuse(t *testing.T) {
	exec, eng := newExec(t, 0.05)
	g := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: 20, Batch: 8},
		{Model: dnn.VGG16, OpStart: 0, OpEnd: 10, Batch: 4},
	}
	cycle := func() {
		exec.Execute(g, func() {})
		eng.Run()
	}
	cycle()
	if len(exec.freeRuns) != 1 {
		t.Fatalf("pool holds %d group runs after a group drained, want 1", len(exec.freeRuns))
	}
	events := eng.AllocatedEvents()
	cycle()
	if got := eng.AllocatedEvents(); got != events {
		t.Errorf("repeat group allocated %d new events, want 0", got-events)
	}
	if len(exec.freeRuns) != 1 {
		t.Errorf("repeat group grew the pool to %d runs, want 1", len(exec.freeRuns))
	}
}

// TestExecuteSteadyStateAllocs pins the end-to-end win at the executor
// layer: once the run pool is warm and the spec table holds both (model,
// input) entries, issuing and draining a contended group reads every span
// in place and allocates nothing (0 allocs/op in BenchmarkExecutorGroup).
// The bound of 2 sits well below one per operator (a ResNet-50 + VGG-16
// group runs ~30 kernels here) and leaves room for the race detector.
func TestExecuteSteadyStateAllocs(t *testing.T) {
	exec, eng := newExec(t, 0.05)
	g := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: 20, Batch: 8},
		{Model: dnn.VGG16, OpStart: 0, OpEnd: 10, Batch: 4},
	}
	done := func() {}
	cycle := func() {
		exec.Execute(g, done)
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 2 {
		t.Errorf("steady-state group execution allocated %v times per run, want <= 2", allocs)
	}
}

// BenchmarkExecutorGroup is one full group cycle on the hot pair: two spans
// read from the spec table, overlapped, then synchronization.
func BenchmarkExecutorGroup(b *testing.B) {
	eng := sim.NewEngine()
	exec := New(gpusim.New(eng, gpusim.A100Profile()), 0.05, nil)
	g := predictor.Group{
		{Model: dnn.ResNet152, OpStart: 0, OpEnd: 40, Batch: 8},
		{Model: dnn.InceptionV3, OpStart: 0, OpEnd: 30, Batch: 8},
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Execute(g, done)
		eng.Run()
	}
}

// TestChainsLeaveSharedSpecsUnchanged: groups read their spans straight out
// of the shared spec table, so no chain may write through them. After
// groups run under noise, a degradation window and a launch stall — every
// path that rescales a kernel's work — each entry still equals a fresh
// derivation from the cost model.
func TestChainsLeaveSharedSpecsUnchanged(t *testing.T) {
	p := gpusim.A100Profile()
	specs := dnn.NewSpecs(p)
	eng := sim.NewEngine()
	dev := gpusim.New(eng, p)
	dev.EnableNoise(0.2, 3)
	exec := New(dev, 0.02, specs)
	g := predictor.Group{
		{Model: dnn.ResNet152, OpStart: 0, OpEnd: dnn.Get(dnn.ResNet152).NumOps(), Batch: 8},
		{Model: dnn.Bert, OpStart: 0, OpEnd: dnn.Get(dnn.Bert).NumOps(), Batch: 4, SeqLen: 32},
	}
	eng.ScheduleAt(2, func() { dev.SetDegradation(0.5, 0.6) })
	eng.ScheduleAt(6, func() { dev.SetDegradation(1, 1) })
	eng.ScheduleAt(8, func() { dev.SetLaunchStall(0.05) })
	eng.ScheduleAt(12, func() { dev.SetLaunchStall(0) })
	groups := 0
	var next func()
	next = func() {
		if groups++; groups <= 4 {
			exec.Execute(g, next)
		}
	}
	next()
	eng.Run()
	if exec.Groups() != 4 || eng.Now() < 12 {
		t.Fatalf("ran %d groups to t=%v; the fault windows were not covered", exec.Groups(), eng.Now())
	}
	for _, e := range g {
		m := dnn.Get(e.Model)
		want := dnn.Kernels(m, e.Input(), p, 0, m.NumOps())
		for i, got := range specs.Span(e.Model, e.Input(), 0, m.NumOps()).Specs() {
			if got != want[i] {
				t.Fatalf("%s op %d: table holds %+v after the run, cost model says %+v", m.Name, i, got, want[i])
			}
		}
	}
}
