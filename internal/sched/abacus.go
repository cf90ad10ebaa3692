package sched

import (
	"sort"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

// Abacus is the paper's headroom-based query controller (§6.2) with
// multi-way search (§6.3) and pipelined scheduling. Per round it:
//
//  1. computes every active query's QoS headroom (Eq. 2, shifted by the
//     in-flight group's predicted latency per Eq. 3 when pipelining),
//  2. sorts queries by headroom and guarantees the least-headroom query by
//     placing all of its remaining operators in the candidate group
//     (dropping it if even that cannot meet the deadline),
//  3. greedily adds as many operators as possible from the remaining
//     queries, in headroom order, searching each query's maximal feasible
//     span with batched duration-model predictions,
//  4. issues the group to the segmental executor once the previous group's
//     synchronization completes.
type Abacus struct {
	eng   *sim.Engine
	exec  *executor.Executor
	model predictor.LatencyModel
	sink  Sink
	cfg   Config

	queues   map[int][]*Query // service ID → FIFO
	services []*Service
	search   SpanSearcher // reusable multi-way search scratch

	inFlight *formedGroup // issued, executing
	next     *formedGroup // formed, awaiting executor (and formation delay)
	forming  bool
	reform   bool // arrivals landed while forming; redo before issuing

	// Instrumentation.
	rounds        int64
	predictRounds int64
	drops         int64
	groupMembers  int64
	groupOps      int64
	groupsIssued  int64
}

type member struct {
	q          *Query
	start, end int
}

type formedGroup struct {
	members []member
	predLat float64
	issued  sim.Time
	ready   bool
}

func (f *formedGroup) group() predictor.Group {
	g := make(predictor.Group, 0, len(f.members))
	for _, m := range f.members {
		g = append(g, predictor.Entry{
			Model:   m.q.Service.Model,
			OpStart: m.start,
			OpEnd:   m.end,
			Batch:   m.q.Input.Batch,
			SeqLen:  m.q.Input.SeqLen,
		})
	}
	return g
}

// NewAbacus builds the controller over the executor and duration model.
func NewAbacus(eng *sim.Engine, exec *executor.Executor, model predictor.LatencyModel, cfg Config, sink Sink) *Abacus {
	if model == nil {
		panic("sched: Abacus requires a latency model")
	}
	return &Abacus{
		eng:    eng,
		exec:   exec,
		model:  model,
		sink:   sink,
		cfg:    cfg.withDefaults(),
		queues: make(map[int][]*Query),
	}
}

// QueueLen implements Scheduler.
func (a *Abacus) QueueLen() int {
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// Rounds returns the number of completed scheduling rounds.
func (a *Abacus) Rounds() int64 { return a.rounds }

// PredictRounds returns the number of batched duration-model invocations.
func (a *Abacus) PredictRounds() int64 { return a.predictRounds }

// Drops returns the number of dropped queries.
func (a *Abacus) Drops() int64 { return a.drops }

// GroupStats reports the mean queries per issued group and mean operators
// per issued group — how aggressively the controller packs overlap.
func (a *Abacus) GroupStats() (meanMembers, meanOps float64) {
	if a.groupsIssued == 0 {
		return 0, 0
	}
	n := float64(a.groupsIssued)
	return float64(a.groupMembers) / n, float64(a.groupOps) / n
}

// Enqueue implements Scheduler.
func (a *Abacus) Enqueue(q *Query) {
	validateQuery(q)
	q.posted = q.NextOp
	a.queues[q.Service.ID] = append(a.queues[q.Service.ID], q)
	switch {
	case a.next != nil:
		// A group is formed but not yet issued: redo the round so the
		// arrival competes for it instead of waiting a full extra group.
		// While the device is executing, the re-search stays hidden behind
		// execution, preserving the pipelining property (§6.3).
		a.next = nil
		a.beginRound()
	case a.forming:
		a.reform = true
	case a.inFlight == nil && !a.exec.Busy():
		a.beginRound()
	}
}

// candidates returns, per service, the first query whose operators are not
// yet fully scheduled (posted view), skipping nothing else: FIFO within a
// service.
func (a *Abacus) candidates() []*Query {
	var out []*Query
	for _, svc := range a.servicesInUse() {
		for _, q := range a.queues[svc] {
			if q.Dropped || q.done {
				continue
			}
			if q.posted < dnn.Get(q.Service.Model).NumOps() {
				out = append(out, q)
				break
			}
			// Head fully scheduled (finishing in flight); the service's
			// process is free for the next group, so look deeper.
		}
	}
	return out
}

func (a *Abacus) servicesInUse() []int {
	ids := make([]int, 0, len(a.queues))
	for id := range a.queues {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// headroom computes the scheduling headroom of q for a group that will be
// issued at refTime (Eq. 2 / Eq. 3).
func (a *Abacus) headroom(q *Query, refTime sim.Time) float64 {
	return q.Deadline() - refTime
}

// refTime is the predicted issue instant of the group being formed: now if
// the device is free, else the in-flight group's predicted completion.
func (a *Abacus) refTime() sim.Time {
	if a.inFlight != nil {
		end := a.inFlight.issued + a.inFlight.predLat
		if end > a.eng.Now() {
			return end
		}
	}
	return a.eng.Now()
}

// beginRound forms the next operator group and charges the search cost to
// the virtual clock. It must not be re-entered while forming. The search
// itself runs on a zero-delay event so that all queries enqueued at the
// same virtual instant compete for the group.
func (a *Abacus) beginRound() {
	if a.forming || a.next != nil {
		return
	}
	a.forming = true
	a.eng.Schedule(0, func() {
		group, predRounds := a.formGroup()
		cost := float64(predRounds) * a.cfg.PredictCost
		a.predictRounds += int64(predRounds)
		if group == nil {
			// Nothing to schedule; the next Enqueue or group completion
			// retries.
			a.forming = false
			a.reform = false
			return
		}
		a.rounds++
		a.eng.Schedule(cost, a.onFormed(group))
	})
}

// onFormed returns the callback that runs once the group's search cost has
// been paid on the virtual clock.
func (a *Abacus) onFormed(group *formedGroup) func() {
	return func() {
		a.forming = false
		if a.reform {
			// Arrivals landed mid-formation; redo the round so they
			// compete for this group (another search round is cheap
			// relative to a group execution).
			a.reform = false
			a.beginRound()
			return
		}
		a.next = group
		a.next.ready = true
		if !a.exec.Busy() && a.inFlight == nil {
			a.issue()
		}
	}
}

// formGroup runs one headroom-based scheduling round (§6.2) and returns the
// formed group plus the number of batched predictions spent. A nil group
// means no schedulable queries remain.
func (a *Abacus) formGroup() (*formedGroup, int) {
	predRounds := 0
	ref := a.refTime()
	for {
		cands := a.candidates()
		if len(cands) == 0 {
			return nil, predRounds
		}
		sort.Slice(cands, func(i, j int) bool {
			hi, hj := a.headroom(cands[i], ref), a.headroom(cands[j], ref)
			if hi != hj {
				return hi < hj
			}
			if cands[i].Arrival != cands[j].Arrival {
				return cands[i].Arrival < cands[j].Arrival
			}
			return cands[i].ID < cands[j].ID
		})

		qmin := cands[0]
		budget := a.headroom(qmin, ref)
		m := dnn.Get(qmin.Service.Model)
		base := &formedGroup{members: []member{{q: qmin, start: qmin.posted, end: m.NumOps()}}}
		lat := a.model.Predict(base.group())
		predRounds++
		if a.cfg.Drop && lat > budget {
			// Even running alone, the least-headroom query cannot meet its
			// deadline: drop it and restart the round (§6.2).
			a.drop(qmin)
			continue
		}
		base.predLat = lat

		// Greedily extend with the other queries' operators, most-urgent
		// first, under q_min's headroom budget.
		for _, q := range cands[1:] {
			span, newLat, rounds := a.searchSpan(base, q, budget)
			predRounds += rounds
			if span > 0 {
				base.members = append(base.members, member{q: q, start: q.posted, end: q.posted + span})
				base.predLat = newLat
			}
		}
		return base, predRounds
	}
}

// drop removes a query from its service queue and emits it as dropped.
func (a *Abacus) drop(q *Query) {
	q.Dropped = true
	q.Finish = a.eng.Now()
	a.drops++
	queue := a.queues[q.Service.ID]
	for i, cand := range queue {
		if cand == q {
			a.queues[q.Service.ID] = append(queue[:i], queue[i+1:]...)
			break
		}
	}
	a.sink(q)
}

// issue hands the formed group to the executor and immediately starts
// forming the following round (pipelined scheduling, §6.3).
func (a *Abacus) issue() {
	g := a.next
	a.next = nil
	if len(g.members) == 0 {
		return
	}
	g.issued = a.eng.Now()
	a.inFlight = g
	a.groupsIssued++
	a.groupMembers += int64(len(g.members))
	for _, m := range g.members {
		m.q.posted = m.end
		a.groupOps += int64(m.end - m.start)
	}
	a.exec.Execute(g.group(), func() { a.onGroupDone(g) })
	if a.cfg.Pipelined {
		a.beginRound()
	}
}

// onGroupDone commits the group's progress, emits finished queries, and
// keeps the pipeline moving.
func (a *Abacus) onGroupDone(g *formedGroup) {
	a.inFlight = nil
	now := a.eng.Now()
	for _, m := range g.members {
		q := m.q
		if q.Dropped {
			continue // dropped mid-flight; results discarded
		}
		q.segments++
		q.NextOp = m.end
		if q.NextOp == dnn.Get(q.Service.Model).NumOps() {
			q.Finish = now
			q.done = true
			a.removeFromQueue(q)
			a.sink(q)
		}
	}
	switch {
	case a.next != nil && a.next.ready:
		a.issue()
	case a.forming:
		// The pipelined formation is still paying its prediction cost; it
		// will issue on completion.
	default:
		a.beginRound()
	}
}

func (a *Abacus) removeFromQueue(q *Query) {
	queue := a.queues[q.Service.ID]
	for i, cand := range queue {
		if cand == q {
			a.queues[q.Service.ID] = append(queue[:i], queue[i+1:]...)
			return
		}
	}
}
