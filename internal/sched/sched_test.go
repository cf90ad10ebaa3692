package sched

import (
	"math/rand"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

type harness struct {
	eng      *sim.Engine
	exec     *executor.Executor
	services []*Service
	emitted  []*Query
	profile  gpusim.Profile
}

func newHarness(t *testing.T, models ...dnn.ModelID) *harness {
	t.Helper()
	p := gpusim.A100Profile()
	eng := sim.NewEngine()
	dev := gpusim.New(eng, p)
	return &harness{
		eng:      eng,
		exec:     executor.New(dev, 0.02, nil),
		services: Services(models, 2, p),
		profile:  p,
	}
}

func (h *harness) sink(q *Query) { h.emitted = append(h.emitted, q) }

func (h *harness) query(id int64, svc int, batch int, arrival sim.Time) *Query {
	in := dnn.Input{Batch: batch}
	if dnn.Get(h.services[svc].Model).IsSequence() {
		in.SeqLen = 32
	}
	return &Query{ID: id, Service: h.services[svc], Input: in, Arrival: arrival}
}

func TestServicesQoSRule(t *testing.T) {
	p := gpusim.A100Profile()
	svcs := Services([]dnn.ModelID{dnn.ResNet152, dnn.Bert}, 2, p)
	for _, s := range svcs {
		m := dnn.Get(s.Model)
		solo := dnn.TransferTime(m, m.MaxInput(), p) + executor.ExclusiveLatency(s.Model, m.MaxInput(), p)
		if diff := s.QoS - 2*solo; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v QoS = %v, want 2x solo %v", s.Model, s.QoS, 2*solo)
		}
	}
	small := SmallServices([]dnn.ModelID{dnn.ResNet152}, 2, p)
	if small[0].QoS >= svcs[0].QoS {
		t.Errorf("small-input QoS %v should be tighter than max-input QoS %v", small[0].QoS, svcs[0].QoS)
	}
}

func TestQueryAccessors(t *testing.T) {
	svc := &Service{ID: 0, Model: dnn.ResNet50, QoS: 40}
	q := &Query{ID: 1, Service: svc, Input: dnn.Input{Batch: 8}, Arrival: 100}
	if q.Deadline() != 140 {
		t.Errorf("Deadline = %v, want 140", q.Deadline())
	}
	q.Finish = 130
	if q.Latency() != 30 {
		t.Errorf("Latency = %v, want 30", q.Latency())
	}
	if q.Violated() {
		t.Error("query within QoS flagged as violated")
	}
	q.Finish = 150
	if !q.Violated() {
		t.Error("late query not flagged")
	}
	q.Finish = 120
	q.Dropped = true
	if !q.Violated() {
		t.Error("dropped query must count as violated")
	}
	if got := q.Remaining(); got != dnn.Get(dnn.ResNet50).NumOps() {
		t.Errorf("Remaining = %d, want full model", got)
	}
}

func TestSequentialFCFSOrdersByArrival(t *testing.T) {
	h := newHarness(t, dnn.ResNet50, dnn.InceptionV3)
	s := NewSequential(FCFS, h.eng, h.exec, DefaultConfig(), h.sink)
	// Enqueue out of order at t=0; FCFS must pick by Arrival field.
	qa := h.query(1, 0, 8, 0)
	qb := h.query(2, 1, 8, 0)
	qb.Arrival = 0
	qa.Arrival = 0
	qb.ID = 1
	qa.ID = 2
	s.Enqueue(qa)
	s.Enqueue(qb)
	h.eng.Run()
	if len(h.emitted) != 2 {
		t.Fatalf("emitted %d", len(h.emitted))
	}
	// qa was enqueued first and dispatched immediately (executor idle).
	if h.emitted[0] != qa {
		t.Error("first enqueued query should finish first under FCFS")
	}
}

func TestSequentialSJFOrdersByDuration(t *testing.T) {
	h := newHarness(t, dnn.VGG19, dnn.ResNet50)
	cfg := DefaultConfig()
	s := NewSequential(SJF, h.eng, h.exec, cfg, h.sink)
	big := h.query(1, 0, 32, 0)   // VGG19 bs32: long
	small := h.query(2, 1, 4, 0)  // Res50 bs4: short
	small2 := h.query(3, 1, 4, 0) // another short
	// Occupy the executor, then enqueue big before small: SJF should still
	// run the smalls first once free.
	s.Enqueue(small2)
	s.Enqueue(big)
	s.Enqueue(small)
	h.eng.Run()
	if len(h.emitted) != 3 {
		t.Fatalf("emitted %d", len(h.emitted))
	}
	if h.emitted[len(h.emitted)-1] != big {
		t.Error("SJF should finish the long VGG19 query last")
	}
}

func TestSequentialEDFOrdersByDeadline(t *testing.T) {
	h := newHarness(t, dnn.ResNet152, dnn.InceptionV3)
	s := NewSequential(EDF, h.eng, h.exec, DefaultConfig(), h.sink)
	blocker := h.query(1, 0, 4, 0)
	late := h.query(2, 0, 8, 0) // Res152: big QoS → late deadline
	urgent := h.query(3, 1, 8, 0)
	// IncepV3 QoS < Res152 QoS → urgent has the earlier deadline.
	if urgent.Deadline() >= late.Deadline() {
		t.Skip("deadline ordering assumption violated by calibration")
	}
	s.Enqueue(blocker)
	s.Enqueue(late)
	s.Enqueue(urgent)
	h.eng.Run()
	if len(h.emitted) != 3 {
		t.Fatalf("emitted %d", len(h.emitted))
	}
	if h.emitted[1] != urgent {
		t.Error("EDF should run the earlier-deadline query first after the blocker")
	}
}

func TestSequentialDropsExpiredQueries(t *testing.T) {
	h := newHarness(t, dnn.ResNet152)
	s := NewSequential(FCFS, h.eng, h.exec, DefaultConfig(), h.sink)
	blocker := h.query(1, 0, 32, 0)
	stale := h.query(2, 0, 32, 0)
	s.Enqueue(blocker)
	// Enqueue a query whose deadline passes while the blocker runs.
	stale.Arrival = -2 * h.services[0].QoS
	s.Enqueue(stale)
	h.eng.Run()
	if !stale.Dropped {
		t.Error("expired query was not dropped")
	}
	if blocker.Dropped {
		t.Error("fresh query wrongly dropped")
	}
}

func TestSequentialDropDisabled(t *testing.T) {
	h := newHarness(t, dnn.ResNet152)
	cfg := DefaultConfig()
	cfg.Drop = false
	s := NewSequential(FCFS, h.eng, h.exec, cfg, h.sink)
	blocker := h.query(1, 0, 32, 0)
	stale := h.query(2, 0, 32, 0)
	stale.Arrival = -2 * h.services[0].QoS
	s.Enqueue(blocker)
	s.Enqueue(stale)
	h.eng.Run()
	if stale.Dropped {
		t.Error("query dropped with Drop disabled")
	}
	if !stale.Violated() {
		t.Error("stale query should still be a violation")
	}
}

func TestSequentialQueueLen(t *testing.T) {
	h := newHarness(t, dnn.ResNet50)
	s := NewSequential(FCFS, h.eng, h.exec, DefaultConfig(), h.sink)
	if s.QueueLen() != 0 {
		t.Error("fresh scheduler has non-zero queue")
	}
	s.Enqueue(h.query(1, 0, 8, 0))
	s.Enqueue(h.query(2, 0, 8, 0))
	if s.QueueLen() != 2 {
		t.Errorf("QueueLen = %d, want 2 (1 executing + 1 queued)", s.QueueLen())
	}
	h.eng.Run()
	if s.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after drain", s.QueueLen())
	}
}

func abacusHarness(t *testing.T, models ...dnn.ModelID) (*harness, *Abacus) {
	h := newHarness(t, models...)
	a := NewAbacus(h.eng, h.exec, predictor.Oracle{Profile: h.profile}, DefaultConfig(), h.sink)
	return h, a
}

func TestAbacusCompletesSingleQuery(t *testing.T) {
	h, a := abacusHarness(t, dnn.ResNet50)
	q := h.query(1, 0, 16, 0)
	a.Enqueue(q)
	h.eng.Run()
	if len(h.emitted) != 1 || h.emitted[0] != q {
		t.Fatalf("emitted %v", h.emitted)
	}
	if q.Dropped || !q.Violated() == false && q.Latency() <= 0 {
		t.Errorf("query state: dropped=%v latency=%v", q.Dropped, q.Latency())
	}
	if q.NextOp != dnn.Get(dnn.ResNet50).NumOps() {
		t.Errorf("NextOp = %d, want full model", q.NextOp)
	}
}

func TestAbacusOverlapsTwoServices(t *testing.T) {
	h, a := abacusHarness(t, dnn.ResNet152, dnn.InceptionV3)
	q1 := h.query(1, 0, 16, 0)
	q2 := h.query(2, 1, 16, 0)
	a.Enqueue(q1)
	a.Enqueue(q2)
	h.eng.Run()
	if len(h.emitted) != 2 {
		t.Fatalf("emitted %d", len(h.emitted))
	}
	makespan := maxTime(q1.Finish, q2.Finish)
	p := h.profile
	seq := executor.ExclusiveLatency(dnn.ResNet152, q1.Input, p) + executor.ExclusiveLatency(dnn.InceptionV3, q2.Input, p)
	if makespan >= seq {
		t.Errorf("Abacus makespan %v not better than sequential %v", makespan, seq)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func TestAbacusSegmentsAcrossGroups(t *testing.T) {
	// With one urgent query and one long query, the long query should be
	// split across multiple groups (its NextOp advances in steps).
	h, a := abacusHarness(t, dnn.InceptionV3, dnn.ResNet152)
	long := h.query(1, 1, 32, 0)
	a.Enqueue(long)
	// A stream of urgent Inception queries keeps arriving.
	for i := 0; i < 4; i++ {
		q := h.query(int64(2+i), 0, 8, sim.Time(i)*8)
		h.eng.ScheduleAt(q.Arrival, func() { a.Enqueue(q) })
	}
	h.eng.Run()
	if len(h.emitted) != 5 {
		t.Fatalf("emitted %d, want 5", len(h.emitted))
	}
	for _, q := range h.emitted {
		if q.Dropped {
			t.Errorf("query %d dropped in an uncongested run", q.ID)
		}
	}
	if a.Rounds() < 2 {
		t.Errorf("Rounds = %d; expected the long query to be segmented across multiple groups", a.Rounds())
	}
}

func TestAbacusDropsDoomedQuery(t *testing.T) {
	h, a := abacusHarness(t, dnn.ResNet152)
	q := h.query(1, 0, 32, 0)
	q.Arrival = -h.services[0].QoS * 2 // deadline long gone
	a.Enqueue(q)
	h.eng.Run()
	if !q.Dropped {
		t.Error("doomed query not dropped")
	}
	if a.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", a.Drops())
	}
}

func TestAbacusRequiresModel(t *testing.T) {
	h := newHarness(t, dnn.ResNet50)
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	NewAbacus(h.eng, h.exec, nil, DefaultConfig(), h.sink)
}

func TestAbacusFIFOWithinService(t *testing.T) {
	h, a := abacusHarness(t, dnn.ResNet50)
	q1 := h.query(1, 0, 8, 0)
	q2 := h.query(2, 0, 8, 0)
	a.Enqueue(q1)
	a.Enqueue(q2)
	h.eng.Run()
	if len(h.emitted) != 2 || h.emitted[0] != q1 || h.emitted[1] != q2 {
		t.Error("same-service queries must finish in FIFO order")
	}
}

func TestAbacusNonPipelinedStillCorrect(t *testing.T) {
	h := newHarness(t, dnn.ResNet50, dnn.Bert)
	cfg := DefaultConfig()
	cfg.Pipelined = false
	a := NewAbacus(h.eng, h.exec, predictor.Oracle{Profile: h.profile}, cfg, h.sink)
	for i := 0; i < 6; i++ {
		q := h.query(int64(i+1), i%2, 8, sim.Time(i)*2)
		h.eng.ScheduleAt(q.Arrival, func() { a.Enqueue(q) })
	}
	h.eng.Run()
	if len(h.emitted) != 6 {
		t.Fatalf("emitted %d, want 6", len(h.emitted))
	}
}

func TestProbePoints(t *testing.T) {
	cases := []struct {
		lo, hi, ways int
		want         []int
	}{
		{0, 8, 4, []int{1, 3, 4, 6}},
		{0, 3, 4, []int{1, 2, 3}},
		{5, 6, 4, []int{6}},
		{0, 10, 1, []int{5}}, // 1-way search probes the midpoint (binary search)
		{3, 3, 4, nil},
	}
	for _, c := range cases {
		got := probePoints(c.lo, c.hi, c.ways)
		if len(got) != len(c.want) {
			t.Errorf("probePoints(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.ways, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("probePoints(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.ways, got, c.want)
				break
			}
		}
	}
}

func TestProbePointsInvariants(t *testing.T) {
	for lo := 0; lo < 12; lo++ {
		for hi := lo; hi < 20; hi++ {
			for ways := 1; ways <= 6; ways++ {
				pts := probePoints(lo, hi, ways)
				if hi == lo {
					if pts != nil {
						t.Fatalf("probePoints(%d,%d,%d) should be nil", lo, hi, ways)
					}
					continue
				}
				if len(pts) == 0 {
					t.Fatalf("probePoints(%d,%d,%d) empty for non-empty bracket", lo, hi, ways)
				}
				prev := lo
				for _, p := range pts {
					if p <= prev || p > hi {
						t.Fatalf("probe %d out of (%d,%d] or non-increasing: %v", p, lo, hi, pts)
					}
					prev = p
				}
			}
		}
	}
}

func TestSequentialPolicyString(t *testing.T) {
	if FCFS.String() != "FCFS" || SJF.String() != "SJF" || EDF.String() != "EDF" {
		t.Error("policy names wrong")
	}
}

// linearModel is a synthetic latency model: group latency is the weighted
// sum of span lengths — monotone in every span, so the search's answer can
// be checked against brute force.
type linearModel struct{}

func (linearModel) Predict(g predictor.Group) float64 {
	var s float64
	for _, e := range g {
		s += float64(e.OpEnd-e.OpStart) * (1 + float64(e.Model)*0.1)
	}
	return s
}

func (m linearModel) PredictBatch(gs []predictor.Group) []float64 {
	out := make([]float64, len(gs))
	for i, g := range gs {
		out[i] = m.Predict(g)
	}
	return out
}

func TestMaxFeasibleSpanMatchesBruteForce(t *testing.T) {
	model := linearModel{}
	base := predictor.Group{{Model: dnn.ResNet50, OpStart: 0, OpEnd: 50, Batch: 8}}
	entry := predictor.Entry{Model: dnn.VGG16, OpStart: 3, Batch: 8}
	for _, maxSpan := range []int{1, 2, 7, 33, 100} {
		for _, budget := range []float64{0, 49, 50, 55.5, 63, 1000} {
			for ways := 1; ways <= 6; ways++ {
				got, lat, rounds := MaxFeasibleSpan(model, base, entry, maxSpan, budget, ways)
				// Brute force.
				want := 0
				for k := 1; k <= maxSpan; k++ {
					e := entry
					e.OpEnd = e.OpStart + k
					if model.Predict(append(append(predictor.Group{}, base...), e)) <= budget {
						want = k
					}
				}
				if got != want {
					t.Fatalf("maxSpan=%d budget=%v ways=%d: got %d, want %d", maxSpan, budget, ways, got, want)
				}
				if got > 0 {
					e := entry
					e.OpEnd = e.OpStart + got
					exact := model.Predict(append(append(predictor.Group{}, base...), e))
					if lat != exact {
						t.Fatalf("returned latency %v != exact %v", lat, exact)
					}
				}
				// O(log) rounds: generous bound.
				if rounds > maxSpan+1 {
					t.Fatalf("rounds %d too many for maxSpan %d", rounds, maxSpan)
				}
			}
		}
	}
}

// TestAbacusRandomizedSoak drives the controller with random arrival
// patterns and checks the global invariants: every query is emitted exactly
// once, finished queries completed all operators, per-service FIFO order
// holds among completions, and the run is deterministic.
func TestAbacusRandomizedSoak(t *testing.T) {
	run := func(seed int64) []int64 {
		h := newHarness(t, dnn.ResNet50, dnn.InceptionV3, dnn.Bert)
		a := NewAbacus(h.eng, h.exec, predictor.Oracle{Profile: h.profile}, DefaultConfig(), h.sink)
		rng := rand.New(rand.NewSource(seed))
		batches := dnn.Batches()
		const n = 60
		for i := 0; i < n; i++ {
			svc := rng.Intn(3)
			q := h.query(int64(i+1), svc, batches[rng.Intn(len(batches))], sim.Time(rng.Float64()*800))
			h.eng.ScheduleAt(q.Arrival, func() { a.Enqueue(q) })
		}
		h.eng.Run()
		if len(h.emitted) != n {
			t.Fatalf("seed %d: emitted %d of %d queries", seed, len(h.emitted), n)
		}
		seen := map[int64]bool{}
		lastFinish := map[int]sim.Time{}
		var ids []int64
		for _, q := range h.emitted {
			if seen[q.ID] {
				t.Fatalf("seed %d: query %d emitted twice", seed, q.ID)
			}
			seen[q.ID] = true
			ids = append(ids, q.ID)
			if q.Dropped {
				continue
			}
			if q.NextOp != dnn.Get(q.Service.Model).NumOps() {
				t.Fatalf("seed %d: query %d finished with NextOp %d", seed, q.ID, q.NextOp)
			}
			if q.Latency() <= 0 {
				t.Fatalf("seed %d: query %d latency %v", seed, q.ID, q.Latency())
			}
			if q.Finish < lastFinish[q.Service.ID] {
				t.Fatalf("seed %d: service %d completions out of order", seed, q.Service.ID)
			}
			lastFinish[q.Service.ID] = q.Finish
		}
		return ids
	}
	for seed := int64(1); seed <= 4; seed++ {
		a := run(seed)
		b := run(seed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: emission order differs between identical runs", seed)
			}
		}
	}
}

// TestAbacusExactlyOnceUnderOverload verifies emit-exactly-once when the
// drop path fires frequently.
func TestAbacusExactlyOnceUnderOverload(t *testing.T) {
	h := newHarness(t, dnn.VGG16, dnn.VGG19)
	a := NewAbacus(h.eng, h.exec, predictor.Oracle{Profile: h.profile}, DefaultConfig(), h.sink)
	const n = 80
	for i := 0; i < n; i++ {
		q := h.query(int64(i+1), i%2, 32, sim.Time(i)) // 1 ms apart: heavy overload
		h.eng.ScheduleAt(q.Arrival, func() { a.Enqueue(q) })
	}
	h.eng.Run()
	if len(h.emitted) != n {
		t.Fatalf("emitted %d of %d", len(h.emitted), n)
	}
	if a.Drops() == 0 {
		t.Error("expected drops under heavy overload")
	}
	seen := map[int64]bool{}
	for _, q := range h.emitted {
		if seen[q.ID] {
			t.Fatalf("query %d emitted twice", q.ID)
		}
		seen[q.ID] = true
	}
}

// unitModel charges a fixed cost per operator: group latency =
// 0.04 ms × total operators. It makes the Figure 12 walkthrough's
// arithmetic exact.
type unitModel struct{}

const unitOpCost = 0.04

func (unitModel) Predict(g predictor.Group) float64 {
	var ops int
	for _, e := range g {
		ops += e.OpEnd - e.OpStart
	}
	return float64(ops) * unitOpCost
}

func (m unitModel) PredictBatch(gs []predictor.Group) []float64 {
	out := make([]float64, len(gs))
	for i, g := range gs {
		out[i] = m.Predict(g)
	}
	return out
}

// TestFigure12Walkthrough recreates the paper's Figure 12 example: three
// queries with headrooms 45/35/25 ms. The controller must (1) pick the
// 25 ms query as q_min and schedule all of its operators, (2) add as many
// of the 35 ms query's operators as fit the remaining budget, and (3) give
// whatever is left (here: nothing) to the 45 ms query.
func TestFigure12Walkthrough(t *testing.T) {
	h := newHarness(t, dnn.ResNet50, dnn.ResNet101, dnn.ResNet152)
	// Override QoS so that at t=0 the headrooms are exactly 45/35/25.
	h.services[0].QoS = 45 // Res50  (q1)
	h.services[1].QoS = 35 // Res101 (q2)
	h.services[2].QoS = 25 // Res152 (q3)
	a := NewAbacus(h.eng, h.exec, unitModel{}, DefaultConfig(), h.sink)

	q1 := h.query(1, 0, 8, 0)
	q2 := h.query(2, 1, 8, 0)
	q3 := h.query(3, 2, 8, 0)
	for _, q := range []*Query{q1, q2, q3} {
		q.posted = 0
		a.queues[q.Service.ID] = append(a.queues[q.Service.ID], q)
	}

	group, _ := a.formGroup()
	if group == nil {
		t.Fatal("no group formed")
	}
	byQuery := map[*Query][2]int{}
	for _, m := range group.members {
		byQuery[m.q] = [2]int{m.start, m.end}
	}

	// q3 (least headroom) runs to completion: all 514 Res152 operators,
	// 20.56 ms predicted.
	n3 := dnn.Get(dnn.ResNet152).NumOps()
	if span, ok := byQuery[q3]; !ok || span != [2]int{0, n3} {
		t.Fatalf("q3 span = %v, want full [0,%d)", byQuery[q3], n3)
	}
	// q2 gets the remaining (25 − 20.56)/0.04 = 111 operators.
	if span, ok := byQuery[q2]; !ok || span != [2]int{0, 111} {
		t.Fatalf("q2 span = %v, want [0,111)", byQuery[q2])
	}
	// No budget remains for q1.
	if span, ok := byQuery[q1]; ok {
		t.Fatalf("q1 unexpectedly scheduled: %v", span)
	}
	// The predicted group latency saturates q3's headroom exactly.
	if got := group.predLat; got != 25.0 {
		t.Fatalf("predicted group latency %v, want 25.0", got)
	}
}

func TestGroupStatsAndSegments(t *testing.T) {
	h, a := abacusHarness(t, dnn.ResNet152, dnn.InceptionV3)
	for i := 0; i < 8; i++ {
		q := h.query(int64(i+1), i%2, 16, sim.Time(i)*4)
		h.eng.ScheduleAt(q.Arrival, func() { a.Enqueue(q) })
	}
	h.eng.Run()
	members, ops := a.GroupStats()
	if members < 1 || ops < 1 {
		t.Fatalf("GroupStats = (%v, %v); want positive", members, ops)
	}
	if members > 2 {
		t.Fatalf("mean members %v exceeds the number of services", members)
	}
	for _, q := range h.emitted {
		if q.Dropped {
			continue
		}
		if q.Segments() < 1 {
			t.Errorf("query %d completed with %d segments", q.ID, q.Segments())
		}
	}
}

func TestGroupStatsEmpty(t *testing.T) {
	_, a := abacusHarness(t, dnn.ResNet50)
	if m, o := a.GroupStats(); m != 0 || o != 0 {
		t.Errorf("fresh controller GroupStats = (%v, %v)", m, o)
	}
}

func TestQuerySLOOverride(t *testing.T) {
	svc := &Service{ID: 0, Model: dnn.ResNet50, QoS: 40}
	q := &Query{ID: 1, Service: svc, Input: dnn.Input{Batch: 4}, Arrival: 100}
	if got := q.Deadline(); got != 140 {
		t.Errorf("default deadline = %v, want 140", got)
	}
	q.SLO = 15
	if got := q.Deadline(); got != 115 {
		t.Errorf("SLO deadline = %v, want 115", got)
	}
	q.Finish = 120
	if !q.Violated() {
		t.Error("finish past the SLO deadline not flagged as violation")
	}
}
