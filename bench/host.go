package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"abacus/internal/stats"
)

// processStart is as close to exec as Go code gets; setup_s counts from it.
var processStart = time.Now()

// hostSample is one reading of the three host clocks the benchmark charges
// work to: wall time, process CPU time (user+sys), and heap allocations.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
}

func readHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// hostCost is what the host spent on one unit of measured work (a block, a
// repeat, or one rung of a ladder pass), with the two reference timings taken
// right after it.
type hostCost struct {
	kind      int // units of one kind are identical work; 0 unless a workload has several
	requests  int
	wallS     float64
	cpuUS     float64
	mallocs   float64
	refSpinNS float64
	refMemNS  float64
}

func (c hostCost) reqPerS() float64     { return float64(c.requests) / c.wallS }
func (c hostCost) cpuUSPerReq() float64 { return c.cpuUS / float64(c.requests) }

// costBetween charges what the host spent between two samples to one unit of
// the given kind, then takes the two reference timings, outside the interval.
func costBetween(a, b hostSample, kind, requests int) hostCost {
	return hostCost{
		kind:      kind,
		requests:  requests,
		wallS:     b.wall.Sub(a.wall).Seconds(),
		cpuUS:     float64(b.cpu-a.cpu) / float64(time.Microsecond),
		mallocs:   float64(b.mallocs - a.mallocs),
		refSpinNS: refSpin(),
		refMemNS:  refMem(),
	}
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

var spinSink uint64

// refSpin times a fixed arithmetic loop that touches no memory: it tells a
// slow machine (every unit's spin is slow) from a slow program (spins
// steady, metrics worse).
func refSpin() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return float64(time.Since(t0))
}

// memRef is the table refMem walks: 4 M slots (16 MB, beyond the caches)
// each holding the next slot of one full-period pseudo-random cycle. It is
// mapped outside the Go heap so that heap_mb stays the program's own.
var memRef []uint32

const memRefSlots = 1 << 22

// refMem times a fixed walk of dependent loads through memRef. The
// arithmetic spin does not see a neighbour thrashing the memory system; this
// does, and on the memory-bound virtual-time workloads it tracks the drift of
// the per-request costs.
func refMem() float64 {
	if memRef == nil {
		raw, err := syscall.Mmap(-1, 0, 4*memRefSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0 // the diagnostic is lost, the run is not
		}
		memRef = unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), memRefSlots)
		for i := range memRef {
			memRef[i] = (uint32(i)*5 + 1) % memRefSlots // full-period LCG
		}
	}
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < 100_000; i++ {
		p = memRef[p]
	}
	spinSink += uint64(p)
	return float64(time.Since(t0))
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	q := stats.Percentiles(xs, 25, 50, 75)
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// medianAndTail returns the median and the highest of p99/p95/p90/p75 that
// still has at least ten samples beyond it, with the percentile chosen. At
// full scale every workload has the thousand samples p99 needs.
func medianAndTail(xs []float64) (med, tail, tailP float64) {
	for _, tailP = range []float64{99, 95, 90, 75} {
		if float64(len(xs))*(100-tailP)/100 >= 10 {
			break
		}
	}
	q := stats.Percentiles(xs, 50, tailP)
	return q[0], q[1], tailP
}
