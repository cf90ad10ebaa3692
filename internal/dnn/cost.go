package dnn

import (
	"math"

	"abacus/internal/gpusim"
)

// kindEfficiency returns the fraction of the device's sustained FLOP and
// byte throughput an operator kind achieves. GEMM-style kernels approach the
// compute roof; elementwise and reduction kernels are bandwidth-bound and
// incur extra inefficiency from short grids.
func kindEfficiency(k OpKind) (flopEff, memEff float64) {
	switch k {
	case Conv2D:
		return 0.50, 0.85
	case Dense, MatMul:
		return 0.60, 0.85
	case Softmax, LayerNorm, BatchNorm:
		return 0.20, 0.75
	default: // elementwise, pooling, concat, embedding
		return 0.25, 0.85
	}
}

// tileElems returns the number of output elements one thread block (tile)
// covers for the kind: GEMM kernels use 64×64 tiles, elementwise kernels
// cover wide flat ranges.
func tileElems(k OpKind) float64 {
	if k.MatMulLike() {
		return 4096
	}
	return 16384
}

// minKernelWork is the floor on a kernel's solo duration (ms): even an empty
// kernel costs a scheduling quantum on the device.
const minKernelWork = 0.002

// KernelFor maps an operator at a runtime input to the kernel the device
// executes:
//
//   - SMFrac: achievable occupancy = tiles / (NumSMs·BlocksPerSM), capped at 1.
//     Small operators (late ResNet/Inception stages, small batches) occupy a
//     fraction of the device, which is precisely where deterministic overlap
//     pays off (paper §7.3).
//   - Work: solo duration = max(compute time at the occupied SM share,
//     bandwidth time), plus the minimum kernel quantum.
//   - MemFrac: fraction of device bandwidth the kernel consumes while
//     running, which drives cross-kernel bandwidth contention.
func KernelFor(op *Op, in Input, p gpusim.Profile) gpusim.KernelSpec {
	flops := op.FLOPs.Eval(in)
	bytes := op.Bytes.Eval(in)
	elems := op.OutElems.Eval(in)

	flopEff, memEff := kindEfficiency(op.Kind)

	tiles := elems / tileElems(op.Kind)
	// A kernel reaches the device's full throughput only after several
	// waves of thread blocks; below that it is tail/latency-bound and the
	// unused share of the device is available to co-located kernels. This
	// is the paper's "small operators cannot saturate the GPU" (§7.3).
	tilesForFull := float64(p.NumSMs * p.BlocksPerSM * p.FullWaves)
	smFrac := tiles / tilesForFull
	if smFrac > 1 {
		smFrac = 1
	}
	if smFrac < 1.0/tilesForFull {
		smFrac = 1.0 / tilesForFull // at least one resident block
	}

	// Small grids lose throughput to the wave tail, but sublinearly: a
	// kernel that can only occupy smFrac of the SMs still benefits from
	// higher per-SM cache locality and clocks, so its achievable compute
	// rate follows sqrt(smFrac). The linear smFrac remains the kernel's
	// resource footprint for contention.
	computeMS := 0.0
	if flops > 0 {
		computeMS = flops / (flopEff * p.FLOPsPerMS * math.Sqrt(smFrac))
	}
	memMS := 0.0
	if bytes > 0 {
		memMS = bytes / (memEff * p.BytesPerMS)
	}
	work := math.Max(computeMS, memMS) + minKernelWork

	memFrac := 0.0
	if bytes > 0 {
		memFrac = bytes / work / p.BytesPerMS
		if memFrac > 1 {
			memFrac = 1
		}
	}

	return gpusim.KernelSpec{
		Name:    op.Name,
		Work:    work,
		SMFrac:  smFrac,
		MemFrac: memFrac,
	}
}

// Kernels maps a span [start, end) of the model's operator list to kernel
// specs for the given input. Kernels(m, in, p, 0, m.NumOps()) is the whole
// query. It panics on an invalid span.
func Kernels(m *Model, in Input, p gpusim.Profile, start, end int) []gpusim.KernelSpec {
	checkSpan(m, start, end)
	specs := make([]gpusim.KernelSpec, end-start)
	for i := range specs {
		specs[i] = KernelFor(&m.Ops[start+i], in, p)
	}
	return specs
}

func checkSpan(m *Model, start, end int) {
	if start < 0 || end > len(m.Ops) || start > end {
		panic("dnn: invalid operator span")
	}
}

// SpanWork returns the summed solo kernel duration of operators [start, end)
// including per-launch gaps — the exclusive-execution time of the span. The
// sequential baselines (FCFS/SJF/EDF) complete a query in exactly this time.
func SpanWork(m *Model, in Input, p gpusim.Profile, start, end int) float64 {
	var total float64
	for i := start; i < end; i++ {
		total += KernelFor(&m.Ops[i], in, p).Work + p.LaunchGap
	}
	return total
}

// TransferTime returns the host→device input transfer time of a query (the
// T_comms term of paper Equation 2).
func TransferTime(m *Model, in Input, p gpusim.Profile) float64 {
	return m.InputBytes(in) / (1 << 20) * p.TransferPerMB
}

// SwapTime returns the time to activate the model's weights on a device (the
// Clockwork baseline pays this when switching the active model).
func SwapTime(m *Model, p gpusim.Profile) float64 {
	return m.ParamBytes() / (1 << 20) * p.ModelSwapPerMB
}
