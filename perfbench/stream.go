package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"sync/atomic"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

const (
	numCallers = 2

	// hotWarmSelects is replica-hot's per-caller warm-up: connections and
	// runtime settle; every shape is already cached by the daemon's warm pass.
	hotWarmSelects = 4096
	// qualityWindow is how many measured selects per caller quality_pct
	// covers: a fixed stretch of each caller's stream, so the figure is
	// reproducible to the last digit for a seed.
	qualityWindow = 1024
	// dynamicPerDevice is replica-dynamic's distinct shapes per device:
	// three times the daemon's default 4096-entry decision cache.
	dynamicPerDevice = 12288
	// fleetDynamic is fleet-reload's distinct pass-through shapes, twice the
	// router's default 4096-entry edge cache.
	fleetDynamic = 8192
	// fleetHotShare is fleet-reload's share of selects drawn from the
	// dataset shapes, which the edge cache answers.
	fleetHotShare = 0.5
	// hotStreamLen is the per-caller length of replica-hot's stream, which
	// callers cycle.
	hotStreamLen = 1 << 16

	// The daemons train their libraries with the paper pipeline's defaults:
	// decision-tree pruning to 8 configurations, a decision-tree selector,
	// seed 42. The oracle reproduces that pipeline and cross-checks its
	// configuration lists against each daemon's GET /v1/configs.
	libSize  = 8
	libSeed  = 42
	maxSlots = 2
)

// entry is one distinct (device, shape) request of a workload.
type entry struct {
	dev   int
	shape gemm.Shape
	body  []byte
	want  [maxSlots]int16 // oracle index per library slot
	hot   bool            // a dataset shape
}

// stream is a workload's request universe and each caller's order over it.
type stream struct {
	devices []device.Spec
	entries []entry
	seq     [numCallers][]int32
	warm    [numCallers]int // warm-up selects per caller; the measured phase follows on
}

func workloadDevices(name string) []device.Spec {
	if name == "fleet-reload" {
		return []device.Spec{device.R9Nano()}
	}
	return []device.Spec{device.R9Nano(), device.IntegratedGen9(), device.EmbeddedMaliG72()}
}

// buildStream derives a workload's requests from the seed alone.
func buildStream(name string, seed uint64) (*stream, error) {
	st := &stream{devices: workloadDevices(name)}
	shapes, _ := workload.DatasetShapes()
	switch name {
	case "replica-hot":
		for d := range st.devices {
			for _, s := range shapes {
				st.add(d, s, true)
			}
		}
		for c := range st.seq {
			rng := rand.New(rand.NewPCG(seed, uint64(10+c)))
			seq := make([]int32, hotStreamLen)
			for i := range seq {
				seq[i] = int32(rng.IntN(len(st.entries)))
			}
			st.seq[c] = seq
		}
		st.warm = [numCallers]int{hotWarmSelects, hotWarmSelects}
	case "replica-dynamic":
		rng := rand.New(rand.NewPCG(seed, 1))
		for d := range st.devices {
			for _, s := range dynamicShapes(rng, dynamicPerDevice) {
				st.add(d, s, false)
			}
		}
		// Each caller walks its own half of a seeded permutation, cyclically:
		// a shape comes back only after every other shape of the pool, so its
		// reuse distance exceeds the decision cache and nearly every select
		// takes the miss path.
		perm := rng.Perm(len(st.entries))
		for c := range st.seq {
			for i := c; i < len(perm); i += numCallers {
				st.seq[c] = append(st.seq[c], int32(perm[i]))
			}
		}
		for c := range st.seq {
			st.warm[c] = len(st.seq[c])
		}
	case "fleet-reload":
		for _, s := range shapes {
			st.add(0, s, true)
		}
		nHot := len(st.entries)
		rng := rand.New(rand.NewPCG(seed, 2))
		for _, s := range dynamicShapes(rng, fleetDynamic) {
			st.add(0, s, false)
		}
		perm := rng.Perm(len(st.entries) - nHot)
		for c := range st.seq {
			var half []int32
			for i := c; i < len(perm); i += numCallers {
				half = append(half, int32(nHot+perm[i]))
			}
			mix := rand.New(rand.NewPCG(seed, uint64(20+c)))
			seq := make([]int32, 0, 4*len(half)+1024)
			for dyn := 0; dyn < 2*len(half); {
				if mix.Float64() < fleetHotShare {
					seq = append(seq, int32(mix.IntN(nHot)))
					continue
				}
				seq = append(seq, half[dyn%len(half)])
				dyn++
				if dyn == len(half) {
					st.warm[c] = len(seq)
				}
			}
			st.seq[c] = seq
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want replica-hot, replica-dynamic or fleet-reload)", name)
	}
	return st, nil
}

// dynamicShapes draws n distinct transformer-style GEMM shapes: m is batch ×
// sequence length, k and n are the projection widths of
// workload.TransformerMix.
func dynamicShapes(rng *rand.Rand, n int) []gemm.Shape {
	mix := workload.TransformerMix()
	seen := make(map[gemm.Shape]bool, n)
	out := make([]gemm.Shape, 0, n)
	for len(out) < n {
		w := mix[rng.IntN(len(mix))]
		s := gemm.Shape{M: (1 + rng.IntN(32)) * (1 + rng.IntN(2048)), K: w.K, N: w.N}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func (st *stream) add(dev int, s gemm.Shape, hot bool) {
	b := append([]byte(`{"m":`), strconv.Itoa(s.M)...)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(s.N), 10)
	b = append(b, `,"device":"`...)
	b = append(b, st.devices[dev].Name...)
	b = append(b, `"}`...)
	st.entries = append(st.entries, entry{dev: dev, shape: s, body: b, hot: hot})
}

// at returns caller c's entry at stream position pos (the stream cycles).
func (st *stream) at(c, pos int) int32 { return st.seq[c][pos%len(st.seq[c])] }

// libOracle is one library as the checker sees it.
type libOracle struct {
	lib    *core.Library
	choose func(gemm.Shape) int
	names  []string
}

func newLibOracle(lib *core.Library) *libOracle {
	choose, ok := lib.CompiledChooser()
	if !ok {
		choose = lib.ChooseIndex
	}
	lo := &libOracle{lib: lib, choose: choose}
	for _, c := range lib.Configs {
		lo.names = append(lo.names, c.String())
	}
	return lo
}

// oracle answers "which config must a response stamped (device, generation)
// carry for this shape": each generation maps to a library slot, and each
// slot's choice is precomputed per entry.
type oracle struct {
	libs [][]*libOracle // [device][slot]
	// gens[device][generation] holds slot+1; 0 means the generation is
	// unknown. Reloads register a generation before they are sent, so a
	// caller never sees a stamp the oracle does not know.
	gens [][64]atomic.Int32
}

func newOracle(ndev int) *oracle {
	return &oracle{libs: make([][]*libOracle, ndev), gens: make([][64]atomic.Int32, ndev)}
}

// resetGens forgets every generation; a fresh set-up starts over.
func (o *oracle) resetGens() { o.gens = make([][64]atomic.Int32, len(o.libs)) }

func (o *oracle) setSlot(dev int, gen uint64, slot int) error {
	if gen >= uint64(len(o.gens[dev])) {
		return fmt.Errorf("generation %d beyond the oracle's range", gen)
	}
	o.gens[dev][gen].Store(int32(slot + 1))
	return nil
}

func (o *oracle) slot(dev int, gen uint64) int {
	if gen >= uint64(len(o.gens[dev])) {
		return -1
	}
	return int(o.gens[dev][gen].Load()) - 1
}

// fill precomputes every entry's choice under every library slot.
func (o *oracle) fill(st *stream) {
	for i := range st.entries {
		e := &st.entries[i]
		for s, lo := range o.libs[e.dev] {
			e.want[s] = int16(lo.choose(e.shape))
		}
	}
}

// trainLibrary runs the deployed pipeline for one device, as selectd does at
// start-up: price the dataset shapes over all configurations, prune, train.
func trainLibrary(spec device.Spec) (*dataset.PerfDataset, *core.Library) {
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(sim.New(spec), shapes, gemm.AllConfigs())
	return ds, core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, libSize, libSeed)
}

// reloadVariant is the second reload artifact: lib's configurations with a
// selector trained on a seeded subsample of the dataset, so the two
// artifacts disagree on a seed-dependent share of shapes.
func reloadVariant(ds *dataset.PerfDataset, lib *core.Library, seed uint64) (*core.Library, error) {
	selected := make([]int, len(lib.Configs))
	for i, c := range lib.Configs {
		selected[i] = -1
		for j, dc := range ds.Configs {
			if dc == c {
				selected[i] = j
				break
			}
		}
		if selected[i] < 0 {
			return nil, fmt.Errorf("library config %s not in the dataset", c)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	perm := rng.Perm(ds.NumShapes())
	rows := perm[:ds.NumShapes()*3/5]
	sel := core.DecisionTreeSelector{}.Train(ds.Subset(rows), selected, seed)
	return core.NewLibrary(lib.Configs, sel)
}

// answer is the part of a decision the checker reads. It never reads the
// predicted_* fields: pricing may leave the decision path.
type answer struct {
	cfg, reason      []byte
	index            int
	gen              uint64
	cached, degraded bool
}

// scanAnswer extracts the checked fields from a decision body without
// allocating. It accepts any flat JSON object and reports false for anything
// else or when config, index or generation is missing.
func scanAnswer(b []byte, a *answer) bool {
	*a = answer{index: -1}
	var seen uint8
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return false
	}
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return false
		}
		i = skipWS(b, j)
		if i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipWS(b, i+1)
		start := i
		if i < len(b) && b[i] == '"' {
			_, j, ok = scanString(b, i)
		} else {
			j, ok = scanLiteral(b, i)
		}
		if !ok {
			return false
		}
		val := b[start:j]
		switch string(key) {
		case "config":
			a.cfg = bytes.Trim(val, `"`)
			seen |= 1
		case "index":
			n, ok := parseDecimal(val)
			if !ok {
				return false
			}
			a.index = n
			seen |= 2
		case "generation":
			n, ok := parseDecimal(val)
			if !ok {
				return false
			}
			a.gen = uint64(n)
			seen |= 4
		case "cached":
			a.cached = string(val) == "true"
		case "degraded":
			a.degraded = string(val) == "true"
		case "degraded_reason":
			a.reason = bytes.Trim(val, `"`)
		}
		i = skipWS(b, j)
		if i >= len(b) {
			return false
		}
		if b[i] == '}' {
			return seen == 7
		}
		if b[i] != ',' {
			return false
		}
		i = skipWS(b, i+1)
	}
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '"':
			return b[i+1 : j], j + 1, true
		case '\\':
			j++
		}
	}
	return nil, i, false
}

// scanLiteral advances over a number, true, false or null.
func scanLiteral(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) {
		c := b[j]
		if (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || c == '-' || c == '+' || c == '.' || c == 'E' {
			j++
			continue
		}
		break
	}
	return j, j > i
}

type verdict uint8

const (
	verdictOK verdict = iota
	verdictDegraded
	verdictWrong
)

// check judges one 200 response for entry e. slot is the library slot the
// stamped generation maps to (-1 for degraded answers).
func (o *oracle) check(e *entry, a *answer) (v verdict, slot int, why string) {
	if a.degraded {
		if len(a.reason) == 0 {
			return verdictWrong, -1, "degraded without a reason"
		}
		return verdictDegraded, -1, ""
	}
	slot = o.slot(e.dev, a.gen)
	if slot < 0 {
		return verdictWrong, -1, fmt.Sprintf("unknown generation %d", a.gen)
	}
	want := int(e.want[slot])
	name := o.libs[e.dev][slot].names[want]
	if a.index != want || string(a.cfg) != name {
		return verdictWrong, slot, fmt.Sprintf("%s on device %d, generation %d: got %s (index %d), want %s (index %d)",
			e.shape, e.dev, a.gen, a.cfg, a.index, name, want)
	}
	return verdictOK, slot, ""
}

// qualityRec is one answered select of the quality window: which entry and
// which of the 640 configurations it was served.
type qualityRec struct {
	entry int32
	cfg   int16
}

// qualityPct is the paper's Table I metric on served traffic: the geometric
// mean, over the quality window's answers, of served GFLOPS over the best
// GFLOPS of all 640 configurations, ×100. The optimum is priced with an
// uncached model so the harness grows no memo of its own.
func qualityPct(st *stream, recs []qualityRec) float64 {
	all := gemm.AllConfigs()
	pricers := make([]*sim.BatchPricer, len(st.devices))
	for d, spec := range st.devices {
		m := &sim.Model{Dev: spec, P: sim.DefaultParams()}
		pricers[d] = m.Batch(all)
	}
	type key struct {
		entry int32
		cfg   int16
	}
	ratio := map[key]float64{}
	row := make([]float64, len(all))
	sum := 0.0
	for _, r := range recs {
		k := key(r)
		q, ok := ratio[k]
		if !ok {
			e := &st.entries[r.entry]
			pricers[e.dev].PriceRow(row, e.shape)
			best := 0.0
			for _, v := range row {
				best = math.Max(best, v)
			}
			q = row[r.cfg] / best
			ratio[k] = q
		}
		sum += math.Log(q)
	}
	return 100 * math.Exp(sum/float64(len(recs)))
}
