// Package sim prices GEMM kernel configurations on GPU-like devices with an
// analytical performance model, standing in for the paper's benchmark runs
// on an AMD R9 Nano.
//
// The paper's selection machinery consumes only a matrix of per-(shape,
// configuration) performance scores; what matters for reproducing its
// results is that the matrix has the right *structure*: a single
// configuration that wins most often, a long tail of dozens of niche
// winners, configurations that are uniformly poor, and mid-pack
// configurations with specialised strengths. Rather than hard-coding such a
// table, this model derives it from first-order GPU mechanics:
//
//   - occupancy: register and local-memory footprints limit resident waves,
//     throttling latency hiding for large-tile kernels;
//   - instruction mix: small tiles spend their issue slots on loads and loop
//     overhead instead of FMAs (low arithmetic intensity);
//   - memory system: tile shape determines global-load coalescing, cache-line
//     exploitation and A/B reload traffic, moderated by L1/L2 capture;
//   - tiling edge waste: shapes that do not divide the group tile burn
//     compute on masked lanes, so small-tile kernels win ragged shapes;
//   - dispatch quantization: small problems cannot fill the device, favouring
//     configurations that produce more, smaller work-groups;
//   - fixed launch overhead, which dominates tiny problems.
//
// A deterministic ±jitter keyed by (device, shape, configuration) stands in
// for run-to-run measurement noise so that near-ties resolve the same way
// every run.
//
// Pricing is a pure function of (device, parameters, configuration, shape)
// and the model memoises none of it. A BatchPricer prices a 640-config row
// in tens of microseconds (BENCH_price.txt), so offline builds, regret
// sampling and retrain gates simply price again; a memo of every priced pair
// would hold a serving process's whole heap and grow with every distinct
// shape it samples for regret.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

// Params collects the tunable constants of the model. The defaults were
// calibrated so that the R9 Nano dataset reproduces the qualitative
// statistics reported in the paper (see internal/experiments).
type Params struct {
	// OccNeededCompute is the occupancy (fraction of resident-wave slots)
	// needed to fully hide ALU latency; below it compute throughput scales
	// linearly.
	OccNeededCompute float64
	// OccNeededMemory is the occupancy needed to saturate DRAM bandwidth.
	OccNeededMemory float64
	// LDSOpCost is the issue cost of one local-memory access relative to one
	// FMA (LDS traffic partially dual-issues on GCN).
	LDSOpCost float64
	// OtherOpCost is the issue cost of loop/address overhead instructions.
	OtherOpCost float64
	// SpillPenalty multiplies compute throughput when the per-item register
	// footprint exceeds the register file (scratch spilling).
	SpillPenalty float64
	// L2CaptureFrac is the fraction of L2 usable for cross-work-group reuse
	// of one operand.
	L2CaptureFrac float64
	// MaxGroupsPerCU is the hardware work-group slot limit per CU.
	MaxGroupsPerCU int
	// MemUnderfillFloor is the memory-bandwidth fraction still achievable
	// with a single resident work-group (DRAM is shared, so under-filled
	// dispatches hurt bandwidth less than ALU throughput).
	MemUnderfillFloor float64
	// OverlapFrac is the fraction of the shorter of compute/memory time that
	// does not overlap with the longer (0 = perfect overlap).
	OverlapFrac float64
	// JitterFrac is the amplitude of the deterministic measurement jitter.
	JitterFrac float64
}

// DefaultParams returns the calibrated model constants.
func DefaultParams() Params {
	return Params{
		OccNeededCompute:  0.28,
		OccNeededMemory:   0.12,
		LDSOpCost:         0.55,
		OtherOpCost:       1.0,
		SpillPenalty:      0.35,
		L2CaptureFrac:     0.45,
		MaxGroupsPerCU:    16,
		MemUnderfillFloor: 0.30,
		OverlapFrac:       0.20,
		JitterFrac:        0.04,
	}
}

// Model prices kernel configurations on one device; a repeat pricing
// computes again. All methods are safe for concurrent use.
//
// Models built with New keep each Batch configuration list's flattened
// parameters, which derive from Dev and P; Dev and P must not change after
// the first Batch call on such a model.
type Model struct {
	Dev device.Spec
	P   Params

	// batches memoises the struct-of-arrays parameter flattening batch
	// pricing uses, per configuration list (see batch.go). nil (zero Model)
	// rebuilds the flattening per Batch call.
	batches *batchCache

	// priced counts Price and PriceInto calls (see Priced).
	priced atomic.Uint64
}

// New returns a model of dev with default parameters that shares Batch
// flattenings across equal configuration lists. It panics if the spec is
// invalid, since a model with a broken device cannot produce meaningful
// numbers anywhere downstream.
func New(dev device.Spec) *Model {
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	return &Model{Dev: dev, P: DefaultParams(), batches: newBatchCache()}
}

// Priced counts the model's pricing calls: one per Price (TimeSeconds and
// GFLOPS included) and one per BatchPricer.PriceInto (a batch Price or
// PriceRow included), so a caller can check that a path prices nothing.
func (m *Model) Priced() uint64 { return m.priced.Load() }

// Breakdown reports every intermediate quantity of one pricing, for tests,
// ablation benchmarks and debugging.
type Breakdown struct {
	// Geometry.
	NumGroups     int // work-groups dispatched
	WavesPerGroup int
	EdgeWaste     float64 // padded/useful flops ratio (≥ 1)

	// Occupancy.
	GroupsPerCU int
	WavesPerCU  int
	Occupancy   float64 // resident waves / device wave slots
	Spilled     bool    // register footprint exceeds the register file

	// Throughput.
	ALUUtil      float64 // FMA issue-slot fraction of the inner loop
	DeviceFill   float64 // dispatch-quantization utilisation (≤ 1)
	ComputeSec   float64
	TrafficBytes float64
	MemorySec    float64

	TotalSec float64
	GFLOPS   float64
}

// TimeSeconds returns the modelled execution time of cfg on shape s.
func (m *Model) TimeSeconds(cfg gemm.Config, s gemm.Shape) float64 {
	return m.Price(cfg, s).TotalSec
}

// GFLOPS returns the modelled achieved GFLOP/s of cfg on shape s.
func (m *Model) GFLOPS(cfg gemm.Config, s gemm.Shape) float64 {
	return m.Price(cfg, s).GFLOPS
}

// Price returns the full model evaluation for one (configuration, shape) pair.
func (m *Model) Price(cfg gemm.Config, s gemm.Shape) Breakdown {
	m.priced.Add(1)
	d := m.Dev
	p := m.P
	var b Breakdown

	tr, tc, acc := cfg.TileRows, cfg.TileCols, cfg.AccDepth
	bm, bn := cfg.GroupTile()
	groupItems := cfg.WG.R * cfg.WG.C

	groupsM := ceilDiv(s.M, bm)
	groupsN := ceilDiv(s.N, bn)
	b.NumGroups = groupsM * groupsN
	b.WavesPerGroup = ceilDiv(groupItems, d.WaveSize)

	// ----- Occupancy -------------------------------------------------------
	regs := cfg.RegistersPerItem()
	wavesByVGPR := d.VGPRsPerLane / regs
	if wavesByVGPR < 1 {
		wavesByVGPR = 1
		b.Spilled = true
	}
	ldsBytes := cfg.LocalMemoryBytes()
	groupsByLDS := d.LDSBytesPerCU / ldsBytes
	if groupsByLDS < 1 {
		groupsByLDS = 1 // modelled as running, serialised, at a penalty via occupancy
	}
	waveSlots := d.SIMDsPerCU * d.MaxWavesPerSIM
	groupsPerCU := minInt(groupsByLDS, p.MaxGroupsPerCU, ceilDiv(waveSlots, b.WavesPerGroup))
	wavesPerCU := minInt(
		groupsPerCU*b.WavesPerGroup,
		wavesByVGPR*d.SIMDsPerCU,
		waveSlots,
	)
	// Work-group slots cannot exceed what the wave budget admits.
	if wavesPerCU < b.WavesPerGroup {
		wavesPerCU = b.WavesPerGroup // one group always resident
	}
	groupsPerCU = maxInt(1, wavesPerCU/b.WavesPerGroup)
	b.GroupsPerCU = groupsPerCU
	b.WavesPerCU = wavesPerCU
	b.Occupancy = float64(wavesPerCU) / float64(waveSlots)

	// ----- Edge waste ------------------------------------------------------
	usefulFlops := float64(s.FLOPs())
	paddedFlops := 2 * float64(groupsM*bm) * float64(groupsN*bn) * float64(s.K)
	b.EdgeWaste = paddedFlops / usefulFlops

	// ----- ALU utilisation of the inner loop -------------------------------
	// Per work-item, per K-chunk of depth acc:
	//   FMA issue slots:        tr·tc·acc
	//   LDS reads (compute):    acc·(tr+tc)
	//   staging (global→LDS):   (bm+bn)·acc/groupItems loads + as many LDS writes
	//   loop/address overhead:  ~8 per chunk + 2 per kk
	fma := float64(tr * tc * acc)
	ldsReads := float64(acc * (tr + tc))
	staging := float64((bm+bn)*acc) / float64(groupItems)
	overhead := 8.0 + 2.0*float64(acc)
	issue := fma + p.LDSOpCost*(ldsReads+2*staging) + p.OtherOpCost*(overhead+staging)
	b.ALUUtil = fma / issue

	// ----- Dispatch quantization -------------------------------------------
	maxConcurrent := d.ComputeUnits * groupsPerCU
	rounds := ceilDiv(b.NumGroups, maxConcurrent)
	b.DeviceFill = float64(b.NumGroups) / float64(rounds*maxConcurrent)

	// ----- Compute time ----------------------------------------------------
	occFactorC := math.Min(1, b.Occupancy/p.OccNeededCompute)
	throughput := d.PeakGFLOPS() * 1e9 * b.ALUUtil * occFactorC * b.DeviceFill
	if b.Spilled {
		throughput *= p.SpillPenalty
	}
	b.ComputeSec = paddedFlops / throughput

	// ----- Memory traffic ---------------------------------------------------
	line := float64(d.CacheLineBytes)
	bytesA := 4 * float64(s.M) * float64(s.K)
	bytesB := 4 * float64(s.K) * float64(s.N)
	bytesC := 4 * float64(s.M) * float64(s.N)

	// Cross-group operand reuse captured by L2.
	l2 := p.L2CaptureFrac * float64(d.L2Bytes)
	residA := clamp01(l2 / bytesA)
	residB := clamp01(l2 / bytesB)
	reloadsA := 1 + float64(groupsN-1)*(1-residA)
	reloadsB := 1 + float64(groupsM-1)*(1-residB)

	// Coalescing of the staged loads. A-tile rows are read in runs of
	// acc·4 bytes; the unused remainder of each touched line is recovered
	// only if the line survives in L1 until the next K-chunk.
	linesWorking := float64(groupsPerCU) * float64(bm+bn)
	l1resid := clamp01(float64(d.L1BytesPerCU) / (linesWorking * line * 4))
	runA := math.Min(line, float64(acc)*4)
	effA := clamp01(runA/line + (1-runA/line)*l1resid)
	runB := math.Min(line, float64(bn)*4)
	effB := clamp01(runB/line + (1-runB/line)*l1resid)
	// C stores: each group row writes bn·4-byte contiguous spans.
	runC := math.Min(line, float64(bn)*4)
	effC := clamp01(runC / line)

	traffic := bytesA*reloadsA/effA + bytesB*reloadsB/effB + bytesC/effC
	b.TrafficBytes = traffic

	occFactorM := math.Min(1, b.Occupancy/p.OccNeededMemory)
	fillM := p.MemUnderfillFloor + (1-p.MemUnderfillFloor)*b.DeviceFill
	bw := d.DRAMBandwidthGB * 1e9 * occFactorM * fillM
	b.MemorySec = traffic / bw

	// ----- Combine ----------------------------------------------------------
	long := math.Max(b.ComputeSec, b.MemorySec)
	short := math.Min(b.ComputeSec, b.MemorySec)
	t := d.LaunchOverheadUS*1e-6 + long + p.OverlapFrac*short

	// Deterministic measurement jitter.
	h := xrand.Hash64(
		hashString(d.Name),
		uint64(s.M), uint64(s.N), uint64(s.K),
		uint64(tr), uint64(tc), uint64(acc),
		uint64(cfg.WG.R), uint64(cfg.WG.C),
	)
	t *= 1 + p.JitterFrac*xrand.UnitJitter(h)

	b.TotalSec = t
	b.GFLOPS = usefulFlops / t / 1e9
	return b
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// String renders the breakdown as a multi-line human-readable report.
func (b Breakdown) String() string {
	return fmt.Sprintf(
		"groups=%d (waves/group %d, edge waste %.3f×)\n"+
			"occupancy=%.2f (%d groups/CU, %d waves/CU%s)\n"+
			"alu util=%.3f, device fill=%.3f\n"+
			"compute=%.3gs, memory=%.3gs (traffic %.3g MB)\n"+
			"total=%.3gs → %.1f GFLOP/s",
		b.NumGroups, b.WavesPerGroup, b.EdgeWaste,
		b.Occupancy, b.GroupsPerCU, b.WavesPerCU, spilledNote(b.Spilled),
		b.ALUUtil, b.DeviceFill,
		b.ComputeSec, b.MemorySec, b.TrafficBytes/1e6,
		b.TotalSec, b.GFLOPS)
}

func spilledNote(s bool) string {
	if s {
		return ", REGISTER SPILL"
	}
	return ""
}
