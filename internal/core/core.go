// Package core assembles the Abacus runtime system of Figure 5: the
// overlap-aware latency predictor, the headroom-based query controller, and
// the segmental model executor, wired onto one (simulated) GPU. It is the
// paper's primary contribution as a reusable component: callers submit
// queries as they arrive and receive per-query outcomes, while the runtime
// forms and issues deterministic operator groups underneath.
//
// internal/serving wraps this runtime for batch experiments; cmd/ and
// examples/ use it directly for streaming workloads.
package core

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// Config assembles a runtime.
type Config struct {
	// Models are the co-located services.
	Models []dnn.ModelID
	// QoSFactor scales QoS targets over max-input solo latency (default 2).
	QoSFactor float64
	// Model is the duration model; nil selects the device's exact oracle
	// (predictor.ForDevice).
	Model predictor.LatencyModel
	// Profile is the device model; zero value = A100.
	Profile gpusim.Profile
	// Device, when non-nil, overrides Profile and runs the runtime on the
	// given (possibly MIG-partitioned) device.
	Device *gpusim.Device
	// Specs is the kernel-spec table the runtime runs on, bound to the
	// device's profile; nil gives the runtime its own. Runtimes of one host
	// share one table.
	Specs *dnn.Specs
	// OnResult receives every finished or dropped query exactly once.
	OnResult func(*sched.Query)
}

// Runtime is one node-level Abacus instance.
type Runtime struct {
	eng      *sim.Engine
	dev      *gpusim.Device
	exec     *executor.Executor
	ctrl     *sched.Abacus
	services []*sched.Service
	nextID   int64
}

// New builds the runtime.
func New(cfg Config) (*Runtime, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("core: no models")
	}
	seen := map[dnn.ModelID]bool{}
	for _, m := range cfg.Models {
		if seen[m] {
			return nil, fmt.Errorf("core: model %v deployed twice (one service per model per GPU)", m)
		}
		seen[m] = true
	}
	if cfg.QoSFactor == 0 {
		cfg.QoSFactor = 2
	}
	dev := cfg.Device
	if dev == nil {
		profile := cfg.Profile
		if profile.NumSMs == 0 {
			profile = gpusim.A100Profile()
		}
		dev = gpusim.New(sim.NewEngine(), profile)
	}
	eng, profile := dev.Engine(), dev.Profile()
	specs := cfg.Specs
	if specs == nil {
		specs = dnn.NewSpecs(profile)
	} else if specs.Profile() != profile {
		return nil, fmt.Errorf("core: spec table bound to profile %q, device is %q", specs.Profile().Name, profile.Name)
	}
	model := cfg.Model
	if model == nil {
		model = predictor.ForDevice(dev, specs)
	}
	sink := cfg.OnResult
	if sink == nil {
		sink = func(*sched.Query) {}
	}
	exec := executor.New(dev, executor.SyncCostMS, specs)
	rt := &Runtime{
		eng:      eng,
		dev:      dev,
		exec:     exec,
		services: sched.Services(cfg.Models, cfg.QoSFactor, profile),
	}
	rt.ctrl = sched.NewAbacus(eng, exec, model, sched.DefaultConfig(), sink)
	return rt, nil
}

// Engine returns the virtual clock driving the runtime.
func (r *Runtime) Engine() *sim.Engine { return r.eng }

// Device returns the underlying device.
func (r *Runtime) Device() *gpusim.Device { return r.dev }

// Executor returns the segmental model executor (for overhead inspection).
func (r *Runtime) Executor() *executor.Executor { return r.exec }

// Controller returns the headroom-based query controller.
func (r *Runtime) Controller() *sched.Abacus { return r.ctrl }

// Services returns the deployed services with their QoS targets.
func (r *Runtime) Services() []*sched.Service { return r.services }

// Submit schedules a query of the given service (index into Config.Models)
// to arrive at virtual time `at`; its input transfer is charged before the
// controller sees it. Submit panics on an unknown service index.
func (r *Runtime) Submit(service int, in dnn.Input, at sim.Time) *sched.Query {
	return r.SubmitSLO(service, in, at, 0)
}

// SubmitSLO is Submit with a per-query deadline override: when sloMS > 0 the
// query's deadline is at+sloMS instead of the service-wide QoS target. The
// online gateway uses it to honor request-supplied deadlines.
func (r *Runtime) SubmitSLO(service int, in dnn.Input, at sim.Time, sloMS float64) *sched.Query {
	if service < 0 || service >= len(r.services) {
		panic(fmt.Sprintf("core: service %d out of range", service))
	}
	svc := r.services[service]
	r.nextID++
	q := &sched.Query{ID: r.nextID, Service: svc, Input: in, Arrival: at, SLO: sloMS}
	transfer := dnn.TransferTime(dnn.Get(svc.Model), in, r.dev.Profile())
	r.eng.ScheduleAt(at+transfer, func() { r.ctrl.Enqueue(q) })
	return q
}
