package sim

// Batch pricing: one shape, every library configuration, in a single
// cache-friendly pass. The dataset builder, regret sampling and the retrain
// gates all price the N configurations of a fixed list against one shape at
// a time; doing that as N independent Price calls re-derives every
// shape-independent quantity (occupancy, ALU utilisation, coalescing
// efficiencies, throughput prefixes) N times per shape. A BatchPricer
// flattens those per-configuration terms into struct-of-arrays once — the
// same flattening core.CompileSelector applies to selectors — so the
// per-(shape, config) inner loop touches only sequential slices and computes
// only the genuinely shape-dependent terms.
//
// The batch path is bit-identical to Price: every floating-point expression
// below preserves the evaluation order of Model.Price term for term (hoisting
// only left prefixes of products, which does not reassociate them), and the
// jitter hash folds the same words in the same sequence. The determinism test
// pins this across the full dataset on every device model.

import (
	"math"
	"sync"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

// cfgParams is the struct-of-arrays layout of every shape-independent term of
// the pricing model for one configuration list on one (device, params) pair.
// It is immutable after construction and shared by every BatchPricer the
// model hands out for the same list.
type cfgParams struct {
	cfgs []gemm.Config

	// Integer geometry per configuration.
	bm, bn        []int
	wavesPerGroup []int
	groupsPerCU   []int
	wavesPerCU    []int
	maxConcurrent []int

	occupancy []float64
	spilled   []bool
	aluUtil   []float64

	// computeBase is the left prefix PeakGFLOPS·1e9·ALUUtil·occFactorC of the
	// compute-throughput product; the inner loop multiplies by DeviceFill (and
	// the spill penalty after it, as Price does). bwBase is the analogous
	// DRAMBandwidth·1e9·occFactorM prefix of the bandwidth product.
	computeBase []float64
	bwBase      []float64

	effA, effB, effC []float64

	// Jitter-hash identity words, folded after the shape prefix in the same
	// order Price passes them to xrand.Hash64.
	trW, tcW, accW, wgRW, wgCW []uint64

	// Model-level scalars hoisted out of both loops.
	devHash      uint64
	l2           float64 // L2CaptureFrac·L2Bytes
	launch       float64 // LaunchOverheadUS·1e-6
	overlapFrac  float64
	jitterFrac   float64
	spillPenalty float64
	memFloor     float64
	memFloorComp float64 // 1 − MemUnderfillFloor

	rowPool sync.Pool // *[]Breakdown: PriceRow's breakdown scratch
}

func buildCfgParams(d device.Spec, p Params, cfgs []gemm.Config) *cfgParams {
	n := len(cfgs)
	cp := &cfgParams{
		cfgs:          append([]gemm.Config(nil), cfgs...),
		bm:            make([]int, n),
		bn:            make([]int, n),
		wavesPerGroup: make([]int, n),
		groupsPerCU:   make([]int, n),
		wavesPerCU:    make([]int, n),
		maxConcurrent: make([]int, n),
		occupancy:     make([]float64, n),
		spilled:       make([]bool, n),
		aluUtil:       make([]float64, n),
		computeBase:   make([]float64, n),
		bwBase:        make([]float64, n),
		effA:          make([]float64, n),
		effB:          make([]float64, n),
		effC:          make([]float64, n),
		trW:           make([]uint64, n),
		tcW:           make([]uint64, n),
		accW:          make([]uint64, n),
		wgRW:          make([]uint64, n),
		wgCW:          make([]uint64, n),

		devHash:      hashString(d.Name),
		l2:           p.L2CaptureFrac * float64(d.L2Bytes),
		launch:       d.LaunchOverheadUS * 1e-6,
		overlapFrac:  p.OverlapFrac,
		jitterFrac:   p.JitterFrac,
		spillPenalty: p.SpillPenalty,
		memFloor:     p.MemUnderfillFloor,
		memFloorComp: 1 - p.MemUnderfillFloor,
	}
	cp.rowPool.New = func() any { s := make([]Breakdown, 0, n); return &s }

	waveSlots := d.SIMDsPerCU * d.MaxWavesPerSIM
	line := float64(d.CacheLineBytes)
	for i, cfg := range cp.cfgs {
		tr, tc, acc := cfg.TileRows, cfg.TileCols, cfg.AccDepth
		bm, bn := cfg.GroupTile()
		groupItems := cfg.WG.R * cfg.WG.C
		cp.bm[i], cp.bn[i] = bm, bn
		wavesPerGroup := ceilDiv(groupItems, d.WaveSize)
		cp.wavesPerGroup[i] = wavesPerGroup

		regs := cfg.RegistersPerItem()
		wavesByVGPR := d.VGPRsPerLane / regs
		if wavesByVGPR < 1 {
			wavesByVGPR = 1
			cp.spilled[i] = true
		}
		ldsBytes := cfg.LocalMemoryBytes()
		groupsByLDS := d.LDSBytesPerCU / ldsBytes
		if groupsByLDS < 1 {
			groupsByLDS = 1
		}
		groupsPerCU := minInt(groupsByLDS, p.MaxGroupsPerCU, ceilDiv(waveSlots, wavesPerGroup))
		wavesPerCU := minInt(
			groupsPerCU*wavesPerGroup,
			wavesByVGPR*d.SIMDsPerCU,
			waveSlots,
		)
		if wavesPerCU < wavesPerGroup {
			wavesPerCU = wavesPerGroup
		}
		groupsPerCU = maxInt(1, wavesPerCU/wavesPerGroup)
		cp.groupsPerCU[i] = groupsPerCU
		cp.wavesPerCU[i] = wavesPerCU
		occupancy := float64(wavesPerCU) / float64(waveSlots)
		cp.occupancy[i] = occupancy
		cp.maxConcurrent[i] = d.ComputeUnits * groupsPerCU

		fma := float64(tr * tc * acc)
		ldsReads := float64(acc * (tr + tc))
		staging := float64((bm+bn)*acc) / float64(groupItems)
		overhead := 8.0 + 2.0*float64(acc)
		issue := fma + p.LDSOpCost*(ldsReads+2*staging) + p.OtherOpCost*(overhead+staging)
		cp.aluUtil[i] = fma / issue

		occFactorC := math.Min(1, occupancy/p.OccNeededCompute)
		cp.computeBase[i] = d.PeakGFLOPS() * 1e9 * cp.aluUtil[i] * occFactorC
		occFactorM := math.Min(1, occupancy/p.OccNeededMemory)
		cp.bwBase[i] = d.DRAMBandwidthGB * 1e9 * occFactorM

		linesWorking := float64(groupsPerCU) * float64(bm+bn)
		l1resid := clamp01(float64(d.L1BytesPerCU) / (linesWorking * line * 4))
		runA := math.Min(line, float64(acc)*4)
		cp.effA[i] = clamp01(runA/line + (1-runA/line)*l1resid)
		runB := math.Min(line, float64(bn)*4)
		cp.effB[i] = clamp01(runB/line + (1-runB/line)*l1resid)
		runC := math.Min(line, float64(bn)*4)
		cp.effC[i] = clamp01(runC / line)

		cp.trW[i], cp.tcW[i], cp.accW[i] = uint64(tr), uint64(tc), uint64(acc)
		cp.wgRW[i], cp.wgCW[i] = uint64(cfg.WG.R), uint64(cfg.WG.C)
	}
	return cp
}

// hashSeed matches xrand.Hash64's initial state; foldHash replicates its
// per-word step exactly, so folding the same words through foldHash and
// finishing with one SplitMix64 reproduces Hash64 bit for bit — without the
// variadic slice.
const hashSeed = uint64(0x243f6a8885a308d3)

func foldHash(h, w uint64) uint64 {
	h ^= w
	_ = xrand.SplitMix64(&h)
	return xrand.SplitMix64(&h)
}

// priceInto prices every configuration against s, writing configuration i's
// result at out[i]. The caller guarantees len(out) == len(cp.cfgs).
func (cp *cfgParams) priceInto(out []Breakdown, s gemm.Shape) {
	usefulFlops := float64(s.FLOPs())
	k := float64(s.K)
	bytesA := 4 * float64(s.M) * float64(s.K)
	bytesB := 4 * float64(s.K) * float64(s.N)
	bytesC := 4 * float64(s.M) * float64(s.N)
	residA := clamp01(cp.l2 / bytesA)
	residB := clamp01(cp.l2 / bytesB)
	oneMinusResidA := 1 - residA
	oneMinusResidB := 1 - residB

	// Shape prefix of the jitter hash: device, M, N, K — the word order Price
	// feeds xrand.Hash64.
	hs := foldHash(hashSeed, cp.devHash)
	hs = foldHash(hs, uint64(s.M))
	hs = foldHash(hs, uint64(s.N))
	hs = foldHash(hs, uint64(s.K))

	for i := range out {
		b := Breakdown{
			WavesPerGroup: cp.wavesPerGroup[i],
			GroupsPerCU:   cp.groupsPerCU[i],
			WavesPerCU:    cp.wavesPerCU[i],
			Occupancy:     cp.occupancy[i],
			Spilled:       cp.spilled[i],
			ALUUtil:       cp.aluUtil[i],
		}
		groupsM := ceilDiv(s.M, cp.bm[i])
		groupsN := ceilDiv(s.N, cp.bn[i])
		b.NumGroups = groupsM * groupsN
		paddedFlops := 2 * float64(groupsM*cp.bm[i]) * float64(groupsN*cp.bn[i]) * k
		b.EdgeWaste = paddedFlops / usefulFlops

		maxConcurrent := cp.maxConcurrent[i]
		rounds := ceilDiv(b.NumGroups, maxConcurrent)
		b.DeviceFill = float64(b.NumGroups) / float64(rounds*maxConcurrent)

		throughput := cp.computeBase[i] * b.DeviceFill
		if b.Spilled {
			throughput *= cp.spillPenalty
		}
		b.ComputeSec = paddedFlops / throughput

		reloadsA := 1 + float64(groupsN-1)*oneMinusResidA
		reloadsB := 1 + float64(groupsM-1)*oneMinusResidB
		traffic := bytesA*reloadsA/cp.effA[i] + bytesB*reloadsB/cp.effB[i] + bytesC/cp.effC[i]
		b.TrafficBytes = traffic

		fillM := cp.memFloor + cp.memFloorComp*b.DeviceFill
		bw := cp.bwBase[i] * fillM
		b.MemorySec = traffic / bw

		long := math.Max(b.ComputeSec, b.MemorySec)
		short := math.Min(b.ComputeSec, b.MemorySec)
		t := cp.launch + long + cp.overlapFrac*short

		h := foldHash(hs, cp.trW[i])
		h = foldHash(h, cp.tcW[i])
		h = foldHash(h, cp.accW[i])
		h = foldHash(h, cp.wgRW[i])
		h = foldHash(h, cp.wgCW[i])
		t *= 1 + cp.jitterFrac*xrand.UnitJitter(xrand.SplitMix64(&h))

		b.TotalSec = t
		b.GFLOPS = usefulFlops / t / 1e9
		out[i] = b
	}
}

// BatchPricer prices a fixed configuration list against shapes, one shape per
// call. Obtain one from Model.Batch and reuse it: the struct-of-arrays
// flattening is paid once at construction. Safe for concurrent use.
type BatchPricer struct {
	m  *Model
	cp *cfgParams
}

// NumConfigs returns the length of the priced configuration list (and of
// every row PriceInto and PriceRow produce).
func (bp *BatchPricer) NumConfigs() int { return len(bp.cp.cfgs) }

// Price returns the full breakdown for every configuration on shape s, in
// configuration-list order.
func (bp *BatchPricer) Price(s gemm.Shape) []Breakdown {
	return bp.PriceInto(nil, s)
}

// PriceInto appends one Breakdown per configuration to dst and returns the
// extended slice. When dst has capacity for the batch the call allocates
// nothing; pass dst[:0] of a reused slice to price with zero allocations per
// call.
func (bp *BatchPricer) PriceInto(dst []Breakdown, s gemm.Shape) []Breakdown {
	bp.m.priced.Add(1)
	n := len(bp.cp.cfgs)
	base := len(dst)
	if cap(dst)-base >= n {
		dst = dst[:base+n]
	} else {
		dst = append(dst, make([]Breakdown, n)...)
	}
	bp.cp.priceInto(dst[base:], s)
	return dst
}

// PriceRow prices every configuration on shape s and writes achieved GFLOPS
// into dst, which must have length NumConfigs. It is the dataset builder's
// row primitive: one call fills one (shape × configs) row.
func (bp *BatchPricer) PriceRow(dst []float64, s gemm.Shape) {
	rp := bp.cp.rowPool.Get().(*[]Breakdown)
	row := bp.PriceInto((*rp)[:0], s)
	for i := range dst {
		dst[i] = row[i].GFLOPS
	}
	*rp = row[:0]
	bp.cp.rowPool.Put(rp)
}

// Batch returns a pricer specialised to cfgs. The flattened parameter layout
// is memoised per configuration list on models built with New, so repeated
// Batch calls with the same list (the serving path re-resolves it per
// generation) reuse one layout.
func (m *Model) Batch(cfgs []gemm.Config) *BatchPricer {
	if m.batches == nil {
		return &BatchPricer{m: m, cp: buildCfgParams(m.Dev, m.P, cfgs)}
	}
	return &BatchPricer{m: m, cp: m.batches.get(m.Dev, m.P, cfgs)}
}

// PriceBatch prices every configuration of cfgs on shape s in one pass,
// returning breakdowns in configuration order. Results are bit-identical to
// calling Price per configuration. Callers pricing many shapes against one
// list should hold a Batch pricer instead of re-passing the list per shape.
func (m *Model) PriceBatch(cfgs []gemm.Config, s gemm.Shape) []Breakdown {
	return m.Batch(cfgs).Price(s)
}

// batchCache memoises cfgParams per configuration list. Lists are compared by
// content (fingerprint, then full equality on collision), so any caller
// passing an equal list shares the flattening. Models built with New carry
// one; a zero Model rebuilds per Batch call.
type batchCache struct {
	mu sync.Mutex
	m  map[uint64][]*cfgParams
}

func newBatchCache() *batchCache {
	return &batchCache{m: make(map[uint64][]*cfgParams)}
}

func (bc *batchCache) get(d device.Spec, p Params, cfgs []gemm.Config) *cfgParams {
	fp := fingerprintConfigs(cfgs)
	bc.mu.Lock()
	for _, cp := range bc.m[fp] {
		if configsEqual(cp.cfgs, cfgs) {
			bc.mu.Unlock()
			return cp
		}
	}
	bc.mu.Unlock()
	// Build outside the lock: construction walks the whole list and two
	// concurrent builders of the same list are rare and harmless.
	cp := buildCfgParams(d, p, cfgs)
	bc.mu.Lock()
	for _, existing := range bc.m[fp] {
		if configsEqual(existing.cfgs, cfgs) {
			bc.mu.Unlock()
			return existing
		}
	}
	bc.m[fp] = append(bc.m[fp], cp)
	bc.mu.Unlock()
	return cp
}

func fingerprintConfigs(cfgs []gemm.Config) uint64 {
	h := foldHash(hashSeed, uint64(len(cfgs)))
	for _, c := range cfgs {
		h = foldHash(h, uint64(c.TileRows)<<40^uint64(c.TileCols)<<28^
			uint64(c.AccDepth)<<16^uint64(c.WG.R)<<8^uint64(c.WG.C))
	}
	return xrand.SplitMix64(&h)
}

func configsEqual(a, b []gemm.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
