// Package gpusim models a GPU as a deterministic discrete-event device.
//
// The Abacus paper's central premise (§5.2) is that the latency of a fixed
// set of overlapped DNN operators is deterministic and predictable, while
// freely overlapping kernels from independently arriving queries is not.
// This package provides a device with exactly those properties as the
// substitute for a physical A100 (see DESIGN.md):
//
//   - A kernel is (Work, SMFrac, MemFrac): milliseconds of solo execution,
//     the fraction of the device's SMs it can occupy, and the fraction of
//     DRAM bandwidth it demands at full rate.
//   - Concurrently resident kernels share SMs and memory bandwidth by
//     max-min fair allocation, so low-occupancy kernels overlap almost for
//     free while saturating kernels time-share — the contention regime the
//     paper reports for ResNet/Inception versus VGG.
//   - Progress rates are piecewise constant between events; remaining work
//     integrates exactly, so latency is a deterministic function of the
//     overlap set.
//   - Optional seeded lognormal noise perturbs each launch to reproduce the
//     small run-to-run jitter measured in §5.2.
//
// The hot path is allocation-free in steady state: kernels, chain cursors,
// and stall records are pooled per device, the resident set is an ordered
// slice (launch-sequence order, which also pins the float accumulation
// order of the utilization integrals), and the rate computation runs on
// reusable scratch buffers. Pool state is invisible to the virtual clock.
//
// MIG instances (§7.5) are devices with fractional SM/bandwidth capacity.
package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"abacus/internal/sim"
)

// KernelSpec describes one GPU kernel launch.
type KernelSpec struct {
	Name    string  // diagnostic label, e.g. "conv3_4/conv"
	Work    float64 // solo execution time at full allocation, ms (> 0)
	SMFrac  float64 // fraction of device SMs occupied when running alone, (0, 1]
	MemFrac float64 // fraction of device DRAM bandwidth demanded at full rate, [0, 1]
}

// Validate reports whether the spec's parameters are in range.
func (s KernelSpec) Validate() error {
	switch {
	case !(s.Work > 0) || math.IsInf(s.Work, 0):
		return fmt.Errorf("gpusim: kernel %q: Work %v must be positive and finite", s.Name, s.Work)
	case !(s.SMFrac > 0) || s.SMFrac > 1:
		return fmt.Errorf("gpusim: kernel %q: SMFrac %v must be in (0,1]", s.Name, s.SMFrac)
	case s.MemFrac < 0 || s.MemFrac > 1 || math.IsNaN(s.MemFrac):
		return fmt.Errorf("gpusim: kernel %q: MemFrac %v must be in [0,1]", s.Name, s.MemFrac)
	}
	return nil
}

// Profile holds the hardware constants of a device model. The defaults in
// A100Profile are calibrated so the model zoo's solo latencies land in the
// paper's regime (tens of milliseconds at batch 32).
type Profile struct {
	Name           string
	NumSMs         int     // streaming multiprocessors (A100: 128 in the paper)
	FLOPsPerMS     float64 // sustained FLOPs per millisecond at full device
	BytesPerMS     float64 // sustained DRAM bytes per millisecond at full device
	LaunchGap      float64 // host-side gap between dependent kernel launches, ms
	BlocksPerSM    int     // resident thread blocks per SM used for occupancy
	FullWaves      int     // block waves needed to reach full throughput (tail effect)
	TransferPerMB  float64 // PCIe/NVLink transfer time per MB of query input, ms
	ModelSwapPerMB float64 // time to activate (swap in) 1 MB of model weights, ms
}

// A100Profile returns the default device profile used across the
// reproduction. Throughput constants are "sustained" rather than peak; the
// per-operator efficiency factors live in the DNN cost model.
func A100Profile() Profile {
	return Profile{
		Name:           "A100",
		NumSMs:         128,
		FLOPsPerMS:     1.6e11, // effective tensor-core roof
		BytesPerMS:     1.9e9,  // HBM2e with L2 reuse folded in
		LaunchGap:      0.004,  // 4 µs per dependent launch
		BlocksPerSM:    2,
		FullWaves:      4,      // small grids are latency-bound until ~4 waves
		TransferPerMB:  0.045,  // ~22 GB/s effective PCIe 4.0
		ModelSwapPerMB: 0.0625, // 16 GB/s weight activation path
	}
}

// kernel is a resident kernel's bookkeeping. Kernel objects are pooled per
// device; the done callback is stored as a (func(any), arg) pair so kernel
// completion never requires a closure allocation.
type kernel struct {
	spec      KernelSpec
	seq       int64    // launch order, for deterministic callback ordering
	start     sim.Time // launch instant, for tracing
	remaining float64  // work left, ms at full rate
	rate      float64  // current progress rate in (0, 1]
	doneFn    func(any)
	doneArg   any
}

// chain is a pooled cursor over a dependent kernel chain (RunChain): one
// object per in-flight chain instead of one closure per step.
type chain struct {
	dev     *Device
	specs   []KernelSpec
	i       int
	doneFn  func(any)
	doneArg any
}

// stalledLaunch carries a deferred launch through an injected launch stall
// without allocating a closure.
type stalledLaunch struct {
	dev  *Device
	spec KernelSpec
	fn   func(any)
	arg  any
}

// Device is a (possibly partitioned) GPU executing kernels under contention.
// All methods must be called from the simulation goroutine; Device is not
// safe for concurrent use, matching the single-threaded engine.
type Device struct {
	eng     *sim.Engine
	profile Profile
	smCap   float64 // capacity in units of "fraction of a full device"
	memCap  float64

	// running is the resident set in ascending launch-sequence order. The
	// fixed order makes the float accumulation in advance and computeRates
	// deterministic (a map here would sum in random iteration order, making
	// SMTime/Energy differ in the low bits across runs).
	running    []*kernel
	lastUpdate sim.Time
	completion sim.Handle

	// Pools and scratch: recycled across launches so the steady-state
	// launch/complete cycle allocates nothing.
	freeKernels []*kernel
	freeChains  []*chain
	freeStalls  []*stalledLaunch
	finished    []*kernel // onCompletion scratch
	smDemand    []float64 // computeRates scratch
	memDemand   []float64
	smAlloc     []float64
	memAlloc    []float64
	shareOrder  []int // maxMinSharesInto scratch

	// Fault-injection state (internal/chaos): degradation scales the
	// effective capacity seen by computeRates without touching the nominal
	// smCap/memCap that Partition and the predictors reason about —
	// throttling is precisely the regime where the duration model and the
	// device disagree.
	smDegrade   float64 // effective-SM scale, (0, 1]; 1 = healthy
	memDegrade  float64 // effective-bandwidth scale, (0, 1]; 1 = healthy
	launchStall float64 // extra delay before each Launch takes effect, ms

	noise      *rand.Rand
	noiseSigma float64
	tracer     Tracer

	busyTime sim.Time // integral of time with >= 1 resident kernel
	smTime   float64  // integral of Σ rate·SMFrac dt (SM-milliseconds used)
	launched int64
}

// New returns a full-capacity device attached to the engine.
func New(eng *sim.Engine, profile Profile) *Device {
	return newDevice(eng, profile, 1, 1)
}

func newDevice(eng *sim.Engine, profile Profile, smCap, memCap float64) *Device {
	if eng == nil {
		panic("gpusim: nil engine")
	}
	if smCap <= 0 || smCap > 1 || memCap <= 0 || memCap > 1 {
		panic(fmt.Sprintf("gpusim: capacity (%v, %v) out of (0,1]", smCap, memCap))
	}
	return &Device{
		eng:        eng,
		profile:    profile,
		smCap:      smCap,
		memCap:     memCap,
		smDegrade:  1,
		memDegrade: 1,
		lastUpdate: eng.Now(),
	}
}

// Partition returns a MIG-style instance with the given fraction of the
// parent's SM and memory-bandwidth capacity. Instances are fully isolated
// from each other and from the parent; per MIG semantics the parent must not
// be used for kernel execution while its partitions are.
func (d *Device) Partition(smFrac, memFrac float64) *Device {
	return newDevice(d.eng, d.profile, d.smCap*smFrac, d.memCap*memFrac)
}

// Engine returns the simulation engine driving this device.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Profile returns the device's hardware profile.
func (d *Device) Profile() Profile { return d.profile }

// SMCapacity returns the device's SM capacity as a fraction of a full GPU.
func (d *Device) SMCapacity() float64 { return d.smCap }

// MemCapacity returns the device's bandwidth capacity as a fraction of a
// full GPU.
func (d *Device) MemCapacity() float64 { return d.memCap }

// Prewarm stocks the device's kernel and chain pools so even the first
// launches allocate nothing. Pool state never affects the virtual clock;
// tests use Prewarm to pin that transparency.
func (d *Device) Prewarm(kernels, chains int) {
	for i := 0; i < kernels; i++ {
		d.freeKernels = append(d.freeKernels, &kernel{})
	}
	for i := 0; i < chains; i++ {
		d.freeChains = append(d.freeChains, &chain{})
	}
}

// PooledKernels reports the number of recycled kernel objects waiting in
// the device pool (diagnostics for pool-behavior tests).
func (d *Device) PooledKernels() int { return len(d.freeKernels) }

// EnableNoise turns on seeded lognormal work perturbation: each launch's
// work is multiplied by exp(sigma·N(0,1)). sigma = 0 disables noise.
func (d *Device) EnableNoise(sigma float64, seed int64) {
	if sigma < 0 {
		panic("gpusim: negative noise sigma")
	}
	if sigma == 0 {
		d.noise = nil
		d.noiseSigma = 0
		return
	}
	d.noise = rand.New(rand.NewSource(seed))
	d.noiseSigma = sigma
}

// SetDegradation injects a transient substrate fault: smScale is a clock
// cut that multiplies every resident kernel's progress rate (thermal/power
// throttling slows all work proportionally), while memScale shrinks the
// device's memory-bandwidth capacity (hurting only bandwidth-constrained
// kernels, like a misbehaving HBM stack or ECC scrubbing storm). Both are
// in (0, 1]; (1, 1) restores the healthy device. Resident kernels are
// re-rated immediately: progress already made is preserved exactly, and
// the change is deterministic on the virtual clock. Nominal capacity
// (SMCapacity, MemCapacity, Partition) is unaffected, so latency
// predictors keep seeing the healthy device — which is exactly what makes
// throttling a prediction fault worth injecting.
func (d *Device) SetDegradation(smScale, memScale float64) {
	if !(smScale > 0) || smScale > 1 || !(memScale > 0) || memScale > 1 {
		panic(fmt.Sprintf("gpusim: degradation (%v, %v) out of (0,1]", smScale, memScale))
	}
	d.advance()
	d.smDegrade = smScale
	d.memDegrade = memScale
	d.reschedule()
}

// Degradation returns the current (SM, bandwidth) degradation factors;
// (1, 1) means the device is healthy.
func (d *Device) Degradation() (smScale, memScale float64) {
	return d.smDegrade, d.memDegrade
}

// SetLaunchStall injects a fixed host-side stall before every subsequent
// Launch takes effect, modeling driver/runtime hiccups in the kernel-launch
// path. Zero restores immediate launches; negative stalls panic.
func (d *Device) SetLaunchStall(ms float64) {
	if ms < 0 || math.IsNaN(ms) {
		panic(fmt.Sprintf("gpusim: launch stall %v must be >= 0", ms))
	}
	d.launchStall = ms
}

// LaunchStall returns the current injected per-launch stall in ms.
func (d *Device) LaunchStall() float64 { return d.launchStall }

// Resident reports the number of kernels currently executing.
func (d *Device) Resident() int { return len(d.running) }

// Launched reports the total number of kernels launched so far.
func (d *Device) Launched() int64 { return d.launched }

// BusyTime returns the total virtual time during which at least one kernel
// was resident.
func (d *Device) BusyTime() sim.Time { d.advance(); return d.busyTime }

// SMTime returns the integral of SM utilization over time, in
// "full-device milliseconds" (e.g. 2 kernels at 0.5 SMFrac for 1 ms = 1.0).
func (d *Device) SMTime() float64 { d.advance(); return d.smTime }

// Utilization returns mean SM utilization over [0, now], in [0, 1].
func (d *Device) Utilization() float64 {
	d.advance()
	if d.eng.Now() == 0 {
		return 0
	}
	return d.smTime / d.eng.Now()
}

// --- pools ---

func (d *Device) getKernel() *kernel {
	if n := len(d.freeKernels); n > 0 {
		k := d.freeKernels[n-1]
		d.freeKernels[n-1] = nil
		d.freeKernels = d.freeKernels[:n-1]
		return k
	}
	return &kernel{}
}

func (d *Device) putKernel(k *kernel) {
	*k = kernel{}
	d.freeKernels = append(d.freeKernels, k)
}

func (d *Device) getChain() *chain {
	if n := len(d.freeChains); n > 0 {
		c := d.freeChains[n-1]
		d.freeChains[n-1] = nil
		d.freeChains = d.freeChains[:n-1]
		c.dev = d
		return c
	}
	return &chain{dev: d}
}

func (d *Device) putChain(c *chain) {
	*c = chain{}
	d.freeChains = append(d.freeChains, c)
}

func (d *Device) getStall() *stalledLaunch {
	if n := len(d.freeStalls); n > 0 {
		s := d.freeStalls[n-1]
		d.freeStalls[n-1] = nil
		d.freeStalls = d.freeStalls[:n-1]
		s.dev = d
		return s
	}
	return &stalledLaunch{dev: d}
}

func (d *Device) putStall(s *stalledLaunch) {
	*s = stalledLaunch{}
	d.freeStalls = append(d.freeStalls, s)
}

// callFunc0 adapts a plain func() callback to a (fn, arg) pair; func values
// are pointer-shaped, so the boxing does not allocate.
func callFunc0(a any) { a.(func())() }

// Launch begins executing spec. done, if non-nil, runs when the kernel
// completes. Launch panics on an invalid spec: specs are produced by the
// cost model, so an invalid one is a programming error.
func (d *Device) Launch(spec KernelSpec, done func()) {
	if done == nil {
		d.launchArg(spec, nil, nil)
		return
	}
	d.launchArg(spec, callFunc0, done)
}

// launchArg is the allocation-free launch primitive: fn(arg) runs when the
// kernel completes.
func (d *Device) launchArg(spec KernelSpec, fn func(any), arg any) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if d.launchStall > 0 {
		// The stall defers the launch on the virtual clock; the stall in
		// force at Launch time is the one paid, even if cleared meanwhile.
		s := d.getStall()
		s.spec = spec
		s.fn = fn
		s.arg = arg
		d.eng.ScheduleArg(d.launchStall, fireStalledLaunch, s)
		return
	}
	d.launchNow(spec, fn, arg)
}

func fireStalledLaunch(a any) {
	s := a.(*stalledLaunch)
	d, spec, fn, arg := s.dev, s.spec, s.fn, s.arg
	d.putStall(s)
	d.launchNow(spec, fn, arg)
}

func (d *Device) launchNow(spec KernelSpec, fn func(any), arg any) {
	d.admit(spec, fn, arg)
	d.reschedule()
}

// admit makes spec resident from now on, without re-rating: fn(arg) runs
// when it completes.
func (d *Device) admit(spec KernelSpec, fn func(any), arg any) *kernel {
	d.advance()
	w := spec.Work
	if d.noise != nil {
		w *= math.Exp(d.noiseSigma * d.noise.NormFloat64())
	}
	k := d.getKernel()
	k.spec = spec
	k.seq = d.launched
	k.start = d.eng.Now()
	k.remaining = w
	k.doneFn = fn
	k.doneArg = arg
	d.running = append(d.running, k) // ascending seq: launched is monotonic
	d.launched++
	return k
}

// RunChain executes specs as a dependent chain: each kernel launches
// LaunchGap after its predecessor completes (the first after an initial
// gap). done, if non-nil, runs when the last kernel finishes. An empty chain
// completes immediately. RunChain returns without blocking; execution
// proceeds on the virtual clock.
func (d *Device) RunChain(specs []KernelSpec, done func()) {
	if done == nil {
		d.RunChainArg(specs, nil, nil)
		return
	}
	d.RunChainArg(specs, callFunc0, done)
}

// RunChainArg is the allocation-free variant of RunChain: the chain is
// driven by a pooled cursor, and fn(arg) runs when the last kernel
// finishes. The specs slice must stay unmodified until then.
func (d *Device) RunChainArg(specs []KernelSpec, fn func(any), arg any) {
	if len(specs) == 0 {
		if fn != nil {
			fn(arg)
		}
		return
	}
	c := d.getChain()
	c.specs = specs
	c.i = 0
	c.doneFn = fn
	c.doneArg = arg
	d.eng.ScheduleArg(d.profile.LaunchGap, advanceChainLaunch, c)
}

// advanceChainLaunch fires after a launch gap: it launches the chain's
// current kernel with the cursor itself as the completion callback. A chain
// that finds the device idle runs in place instead (runOwned).
func advanceChainLaunch(a any) {
	c := a.(*chain)
	d := c.dev
	if len(d.running) == 0 && d.launchStall == 0 && d.tracer == nil {
		c.runOwned()
		return
	}
	d.launchArg(c.specs[c.i], advanceChainStep, c)
}

// advanceChainStep fires when a chain kernel completes: it either schedules
// the next launch gap or retires the cursor and runs the chain's callback.
func advanceChainStep(a any) {
	c := a.(*chain)
	if c.next() {
		c.dev.eng.ScheduleArg(c.dev.profile.LaunchGap, advanceChainLaunch, c)
	}
}

// next moves the cursor past a completed kernel. At the end of the chain it
// retires the cursor, runs the chain's callback and reports false.
func (c *chain) next() bool {
	c.i++
	if c.i < len(c.specs) {
		return true
	}
	d, fn, arg := c.dev, c.doneFn, c.doneArg
	d.putChain(c)
	if fn != nil {
		fn(arg)
	}
	return false
}

// runOwned is the queue-free form of the launch → complete → launch-gap
// cycle, for a chain launching onto an idle device with no stall or tracer
// in force. Each step does exactly what the event it replaces would have
// done, in the same float operations; the event itself is skipped whenever
// sim.Engine.AdvanceTo proves it would fire next, and queued as usual the
// first time anything else is due before it. runOwned runs in an event
// callback and does nothing after its last AdvanceTo but that event's work,
// which is what AdvanceTo requires.
func (c *chain) runOwned() {
	d, eng := c.dev, c.dev.eng
	for {
		spec := c.specs[c.i]
		if err := spec.Validate(); err != nil {
			panic(err)
		}
		k := d.admit(spec, advanceChainStep, c)
		eta := d.rerate()
		if !eng.AdvanceTo(eng.Now() + eta) {
			d.completion = eng.ScheduleArg(eta, fireCompletion, d)
			return
		}
		d.advance()
		if !k.done(eng.Now()) {
			d.reschedule() // as onCompletion re-arms a kernel short of its work
			return
		}
		d.running[0] = nil
		d.running = d.running[:0]
		d.putKernel(k)
		if !c.next() {
			return
		}
		if !eng.AdvanceTo(eng.Now() + d.profile.LaunchGap) {
			eng.ScheduleArg(d.profile.LaunchGap, advanceChainLaunch, c)
			return
		}
	}
}

// advance integrates kernel progress from lastUpdate to now at the current
// (piecewise-constant) rates. The resident slice is in launch order, so the
// float accumulation into smTime is order-deterministic.
func (d *Device) advance() {
	now := d.eng.Now()
	dt := now - d.lastUpdate
	if dt <= 0 {
		d.lastUpdate = now
		return
	}
	if len(d.running) > 0 {
		d.busyTime += dt
		for _, k := range d.running {
			k.remaining -= k.rate * dt
			if k.remaining < 0 {
				k.remaining = 0
			}
			d.smTime += k.rate * k.spec.SMFrac * dt
		}
	}
	d.lastUpdate = now
}

// completionEps absorbs floating-point residue when deciding whether a
// kernel has finished at its completion event.
const completionEps = 1e-9

// done reports whether k has finished at now: its residue is within
// completionEps, or so small that its completion instant rounds to now.
// Far from time zero a clock ulp exceeds completionEps (≈ 1.5e-8 ms a day
// in), and re-arming such a kernel at now would fire again with nothing
// integrated, forever.
func (k *kernel) done(now sim.Time) bool {
	return k.remaining <= completionEps || now+k.remaining/k.rate == now
}

// fireCompletion dispatches the pooled completion event to its device.
func fireCompletion(a any) { a.(*Device).onCompletion() }

// reschedule recomputes rates for the resident set and re-arms the next
// completion event.
func (d *Device) reschedule() {
	d.eng.Cancel(d.completion)
	d.completion = sim.Handle{}
	if len(d.running) > 0 {
		d.completion = d.eng.ScheduleArg(d.rerate(), fireCompletion, d)
	}
}

// rerate recomputes the resident kernels' rates and returns the delay until
// the first of them completes. At least one kernel must be resident.
func (d *Device) rerate() sim.Time {
	d.computeRates()
	eta := math.Inf(1)
	for _, k := range d.running {
		t := k.remaining / k.rate
		if t < eta {
			eta = t
		}
	}
	if eta < 0 {
		eta = 0
	}
	return eta
}

// onCompletion retires every kernel whose work is exhausted, then recomputes
// rates for the survivors. Completion callbacks run after the device state
// is consistent so they may immediately launch new kernels; retired kernel
// objects return to the pool one by one as their callbacks run, so a
// callback that launches immediately reuses a just-retired kernel.
func (d *Device) onCompletion() {
	d.completion = sim.Handle{}
	d.advance()
	now := d.eng.Now()
	resident := d.running
	keep := resident[:0]
	finished := d.finished[:0]
	for _, k := range resident {
		if k.done(now) {
			finished = append(finished, k)
		} else {
			keep = append(keep, k)
		}
	}
	for i := len(keep); i < len(resident); i++ {
		resident[i] = nil
	}
	d.running = keep
	d.finished = finished
	d.reschedule()
	// Callbacks run in launch order so simultaneous completions resolve
	// deterministically. The resident slice is kept in launch order, so
	// finished inherits it; the sort is a structural guard (O(n) on sorted
	// input, allocation-free).
	slices.SortFunc(finished, func(a, b *kernel) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		default:
			return 0
		}
	})
	if d.tracer != nil {
		now := d.eng.Now()
		for _, k := range finished {
			d.tracer(KernelEvent{
				Name:    k.spec.Name,
				Start:   k.start,
				Finish:  now,
				SMFrac:  k.spec.SMFrac,
				MemFrac: k.spec.MemFrac,
			})
		}
	}
	for i, k := range finished {
		fn, arg := k.doneFn, k.doneArg
		finished[i] = nil
		d.putKernel(k)
		if fn != nil {
			fn(arg)
		}
	}
	d.finished = finished[:0]
}

// computeRates assigns each resident kernel its progress rate using max-min
// fair sharing of SM capacity and of memory bandwidth:
//
//	rate_k = min(smAlloc_k/SMFrac_k, memAlloc_k/MemFrac_k)
//
// A kernel whose demand is below the fair share receives its full demand
// (low-occupancy kernels overlap for free); oversubscribed kernels split the
// residual capacity equally. All intermediate state lives on the device's
// reusable scratch buffers.
//
// When the demands fit both capacities, every kernel is granted exactly its
// demand, and the general path computes r = d/d, which is exactly 1 for any
// positive finite d, so each rate is smDegrade. The shortcut sets that
// directly. Its sums run in index order, as maxMinSharesInto's do (a zero
// MemFrac adds exactly nothing), so it takes the shortcut exactly when
// maxMinSharesInto would grant every demand in full.
func (d *Device) computeRates() {
	var smSum, memSum float64
	for _, k := range d.running {
		smSum += k.spec.SMFrac
		memSum += k.spec.MemFrac
	}
	if smSum <= d.smCap && memSum <= d.memCap*d.memDegrade {
		for _, k := range d.running {
			k.rate = d.smDegrade
		}
		return
	}
	n := len(d.running)
	d.smDemand = resizeFloats(d.smDemand, n)
	d.memDemand = resizeFloats(d.memDemand, n)
	d.smAlloc = resizeFloats(d.smAlloc, n)
	d.memAlloc = resizeFloats(d.memAlloc, n)
	for i, k := range d.running {
		d.smDemand[i] = k.spec.SMFrac
		d.memDemand[i] = k.spec.MemFrac
	}
	d.shareOrder = maxMinSharesInto(d.smAlloc, d.smDemand, d.smCap, d.shareOrder)
	d.shareOrder = maxMinSharesInto(d.memAlloc, d.memDemand, d.memCap*d.memDegrade, d.shareOrder)
	for i, k := range d.running {
		r := d.smAlloc[i] / k.spec.SMFrac
		if k.spec.MemFrac > 0 {
			if mr := d.memAlloc[i] / k.spec.MemFrac; mr < r {
				r = mr
			}
		}
		if r <= 0 {
			// Cannot happen: capacity > 0 and demands > 0 imply a positive
			// share, but guard against pathological float underflow.
			r = 1e-12
		}
		if r > 1 {
			r = 1
		}
		// An SM throttle is a clock cut: every resident kernel's progress
		// scales by the degradation factor, on top of contention.
		k.rate = r * d.smDegrade
	}
}

// resizeFloats returns s resized to n, reusing the backing array when it is
// large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// maxMinSharesInto allocates capacity to demands by progressive filling
// (water-filling): demands below the running fair share are fully granted;
// the rest split the remainder equally. Zero demands receive zero. The
// shares go into alloc (len(alloc) == len(demands)); order is index scratch,
// returned (possibly regrown) for reuse. No allocation happens when the
// scratch has capacity. The fill order is demand-ascending with index
// tiebreak, sorted by an in-place insertion sort — deterministic and
// allocation-free (the resident sets here are small).
func maxMinSharesInto(alloc, demands []float64, capacity float64, order []int) []int {
	order = order[:0]
	var total float64
	for i, dm := range demands {
		alloc[i] = 0
		if dm > 0 {
			order = append(order, i)
			total += dm
		}
	}
	if total <= capacity {
		copy(alloc, demands)
		return order
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if demands[a] < demands[b] || (demands[a] == demands[b] && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	remaining := capacity
	for pos, idx := range order {
		left := len(order) - pos
		fair := remaining / float64(left)
		if demands[idx] <= fair {
			alloc[idx] = demands[idx]
			remaining -= demands[idx]
		} else {
			alloc[idx] = fair
			remaining -= fair
		}
	}
	return order
}

// EnergyModel converts device activity into energy, exploiting the paper's
// §7.6 observation (via Kube-knots) that GPU power is highly linear in
// utilization: P = idle + utilization·dynamic.
type EnergyModel struct {
	IdleWatts    float64 // power drawn while powered on
	DynamicWatts float64 // additional power at 100% SM utilization
}

// A100Energy returns a representative 400 W TDP envelope.
func A100Energy() EnergyModel {
	return EnergyModel{IdleWatts: 80, DynamicWatts: 320}
}

// Energy returns the joules consumed by the device from time zero to now
// under the model (virtual milliseconds × watts).
func (d *Device) Energy(m EnergyModel) float64 {
	d.advance()
	elapsedS := d.eng.Now() / 1000
	smS := d.smTime / 1000
	return m.IdleWatts*elapsedS + m.DynamicWatts*smS
}

// V100Profile returns the profile used by the cluster experiment: the
// paper's §7.6 testbed nodes carry V100s, roughly half an A100's compute
// and bandwidth with fewer SMs.
func V100Profile() Profile {
	return Profile{
		Name:           "V100",
		NumSMs:         80,
		FLOPsPerMS:     8.0e10,
		BytesPerMS:     8.0e8,
		LaunchGap:      0.005,
		BlocksPerSM:    2,
		FullWaves:      4,
		TransferPerMB:  0.0625, // PCIe 3.0
		ModelSwapPerMB: 0.0833, // 12 GB/s weight activation path
	}
}
