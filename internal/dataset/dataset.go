// Package dataset builds and manipulates the tuning dataset at the heart of
// the paper: a matrix of per-(GEMM shape, kernel configuration) performance
// scores, normalized per shape by the best configuration for that shape.
//
// The dataset can be built from the analytical device model (internal/sim,
// the substitute for the paper's R9 Nano benchmark runs) or from live
// measurements of the CPU-hosted kernels (see BuildMeasured), and round-trips
// through CSV for offline analysis, mirroring the published dataset of the
// paper's supplementary material.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"kernelselect/internal/gemm"
	"kernelselect/internal/mat"
	"kernelselect/internal/par"
	"kernelselect/internal/sim"
	"kernelselect/internal/xrand"
)

// PerfDataset holds achieved performance for every (shape, configuration)
// pair: GFLOPS is the raw score and Norm the per-shape normalization
// (each row divided by its maximum, so the per-shape optimum scores 1).
type PerfDataset struct {
	Shapes  []gemm.Shape
	Configs []gemm.Config
	GFLOPS  *mat.Dense // len(Shapes) × len(Configs)
	Norm    *mat.Dense // len(Shapes) × len(Configs), row max = 1
}

// Build prices every configuration on every shape with the analytical model,
// in parallel on GOMAXPROCS workers, and returns the normalized dataset.
func Build(m *sim.Model, shapes []gemm.Shape, configs []gemm.Config) *PerfDataset {
	return BuildParallel(m, shapes, configs, 0)
}

// BuildParallel is Build with an explicit worker count (0 = GOMAXPROCS).
// Each worker prices whole rows and writes only its own row, so the dataset
// is identical at any worker count.
func BuildParallel(m *sim.Model, shapes []gemm.Shape, configs []gemm.Config, workers int) *PerfDataset {
	d := &PerfDataset{
		Shapes:  append([]gemm.Shape(nil), shapes...),
		Configs: append([]gemm.Config(nil), configs...),
		GFLOPS:  mat.NewDense(len(shapes), len(configs)),
	}
	bp := m.Batch(d.Configs)
	par.Do(workers, len(d.Shapes), func(i int) {
		bp.PriceRow(d.GFLOPS.Row(i), d.Shapes[i])
	})
	d.normalize()
	return d
}

// BuildMulti prices the same (shapes × configs) grid on several device
// models through one shared worker pool — the cross-device counterpart of
// BuildParallel. The task list is the flattened (model, shape) row grid, so
// a slow device's rows do not serialise behind a fast device's, and each
// model prices each row exactly once. The returned datasets
// are row-aligned: dataset d, row i describes the same shape for every d,
// which is what lets cross-device experiments reuse one train/test split.
// The result is identical at any worker count.
func BuildMulti(models []*sim.Model, shapes []gemm.Shape, configs []gemm.Config, workers int) []*PerfDataset {
	out := make([]*PerfDataset, len(models))
	for d := range out {
		out[d] = &PerfDataset{
			Shapes:  append([]gemm.Shape(nil), shapes...),
			Configs: append([]gemm.Config(nil), configs...),
			GFLOPS:  mat.NewDense(len(shapes), len(configs)),
		}
	}
	bps := make([]*sim.BatchPricer, len(models))
	for d, m := range models {
		bps[d] = m.Batch(configs)
	}
	par.Do(workers, len(models)*len(shapes), func(t int) {
		d, i := t/len(shapes), t%len(shapes)
		bps[d].PriceRow(out[d].GFLOPS.Row(i), out[d].Shapes[i])
	})
	for _, ds := range out {
		ds.normalize()
	}
	return out
}

// Measurer abstracts a live benchmark of one configuration on one shape,
// returning achieved GFLOPS. It lets tests supply deterministic fakes.
type Measurer func(cfg gemm.Config, s gemm.Shape) (float64, error)

// BuildMeasured constructs a dataset from live measurements. Rows are
// measured sequentially (benchmarking in parallel would perturb timings).
func BuildMeasured(measure Measurer, shapes []gemm.Shape, configs []gemm.Config) (*PerfDataset, error) {
	d := &PerfDataset{
		Shapes:  append([]gemm.Shape(nil), shapes...),
		Configs: append([]gemm.Config(nil), configs...),
		GFLOPS:  mat.NewDense(len(shapes), len(configs)),
	}
	for i, s := range d.Shapes {
		row := d.GFLOPS.Row(i)
		for j, cfg := range d.Configs {
			v, err := measure(cfg, s)
			if err != nil {
				return nil, fmt.Errorf("dataset: measuring %v on %v: %w", cfg, s, err)
			}
			if v <= 0 {
				return nil, fmt.Errorf("dataset: non-positive measurement %v for %v on %v", v, cfg, s)
			}
			row[j] = v
		}
	}
	d.normalize()
	return d, nil
}

func (d *PerfDataset) normalize() {
	d.Norm = mat.NewDense(d.GFLOPS.Rows(), d.GFLOPS.Cols())
	for i := 0; i < d.GFLOPS.Rows(); i++ {
		src := d.GFLOPS.Row(i)
		dst := d.Norm.Row(i)
		best := src[0]
		for _, v := range src[1:] {
			if v > best {
				best = v
			}
		}
		for j, v := range src {
			dst[j] = v / best
		}
	}
}

// NumShapes returns the number of dataset rows.
func (d *PerfDataset) NumShapes() int { return len(d.Shapes) }

// NumConfigs returns the number of dataset columns.
func (d *PerfDataset) NumConfigs() int { return len(d.Configs) }

// Best returns the index and raw GFLOPS of the best configuration for row i.
func (d *PerfDataset) Best(i int) (config int, gflops float64) {
	row := d.GFLOPS.Row(i)
	config = 0
	gflops = row[0]
	for j, v := range row {
		if v > gflops {
			config, gflops = j, v
		}
	}
	return config, gflops
}

// WinCounts returns, for each configuration, the number of shapes on which
// it is the per-shape optimum.
func (d *PerfDataset) WinCounts() []int {
	wins := make([]int, d.NumConfigs())
	for i := 0; i < d.NumShapes(); i++ {
		c, _ := d.Best(i)
		wins[c]++
	}
	return wins
}

// MeanNormPerf returns each configuration's mean normalized performance
// across all shapes (the quantity Figure 1 sorts by).
func (d *PerfDataset) MeanNormPerf() []float64 {
	means := make([]float64, d.NumConfigs())
	for i := 0; i < d.NumShapes(); i++ {
		for j, v := range d.Norm.Row(i) {
			means[j] += v
		}
	}
	inv := 1 / float64(d.NumShapes())
	for j := range means {
		means[j] *= inv
	}
	return means
}

// Features returns the shape feature matrix (M, K, N per row) used as
// classifier input.
func (d *PerfDataset) Features() *mat.Dense {
	f := mat.NewDense(d.NumShapes(), 3)
	for i, s := range d.Shapes {
		copy(f.Row(i), s.Features())
	}
	return f
}

// Subset returns a dataset restricted to the given rows (shapes). The
// normalization is inherited, not recomputed: scores remain relative to the
// full-dataset per-shape optimum. It panics on an empty row list.
func (d *PerfDataset) Subset(rows []int) *PerfDataset {
	if len(rows) == 0 {
		panic("dataset: Subset of zero rows")
	}
	s := &PerfDataset{
		Shapes:  make([]gemm.Shape, len(rows)),
		Configs: d.Configs,
		GFLOPS:  mat.NewDense(len(rows), d.NumConfigs()),
		Norm:    mat.NewDense(len(rows), d.NumConfigs()),
	}
	for k, i := range rows {
		s.Shapes[k] = d.Shapes[i]
		copy(s.GFLOPS.Row(k), d.GFLOPS.Row(i))
		copy(s.Norm.Row(k), d.Norm.Row(i))
	}
	return s
}

// Stack concatenates datasets sharing one configuration list into a single
// dataset whose rows are every part's rows in order — the multi-device
// training pool for transfer-aware pruning: each device contributes its own
// rows, and each row's normalization stays relative to that device's
// per-shape optimum (Norm is inherited, not recomputed, exactly as Subset
// inherits it). It panics when the parts' configuration lists disagree, since
// columns would then mean different kernels in different rows.
func Stack(parts []*PerfDataset) *PerfDataset {
	if len(parts) == 0 {
		panic("dataset: Stack of zero datasets")
	}
	ref := parts[0].Configs
	total := 0
	for _, p := range parts {
		if len(p.Configs) != len(ref) {
			panic("dataset: Stack over differing configuration lists")
		}
		for j, c := range p.Configs {
			if c != ref[j] {
				panic("dataset: Stack over differing configuration lists")
			}
		}
		total += p.NumShapes()
	}
	s := &PerfDataset{
		Shapes:  make([]gemm.Shape, 0, total),
		Configs: ref,
		GFLOPS:  mat.NewDense(total, len(ref)),
		Norm:    mat.NewDense(total, len(ref)),
	}
	row := 0
	for _, p := range parts {
		s.Shapes = append(s.Shapes, p.Shapes...)
		for i := 0; i < p.NumShapes(); i++ {
			copy(s.GFLOPS.Row(row), p.GFLOPS.Row(i))
			copy(s.Norm.Row(row), p.Norm.Row(i))
			row++
		}
	}
	return s
}

// Split partitions the dataset rows into train and test subsets with the
// given test fraction, shuffled deterministically by seed. It mirrors the
// paper's random 136/34 segmentation.
func (d *PerfDataset) Split(seed uint64, testFrac float64) (train, test *PerfDataset) {
	if testFrac <= 0 || testFrac >= 1 {
		panic(fmt.Sprintf("dataset: test fraction %v out of (0,1)", testFrac))
	}
	perm := xrand.New(seed).Perm(d.NumShapes())
	nTest := int(float64(d.NumShapes())*testFrac + 0.5)
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= d.NumShapes() {
		nTest = d.NumShapes() - 1 // both sides of the split must be non-empty
	}
	testRows := append([]int(nil), perm[:nTest]...)
	trainRows := append([]int(nil), perm[nTest:]...)
	sort.Ints(testRows)
	sort.Ints(trainRows)
	return d.Subset(trainRows), d.Subset(testRows)
}

// WriteCSV emits the dataset as CSV: a header of configuration names, then
// one row per shape as "M,K,N,score...". Raw GFLOPS are written; Norm is
// recomputed on load.
func (d *PerfDataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "m,k,n")
	for _, c := range d.Configs {
		fmt.Fprintf(bw, ",%s", c)
	}
	fmt.Fprintln(bw)
	for i, s := range d.Shapes {
		fmt.Fprintf(bw, "%d,%d,%d", s.M, s.K, s.N)
		for _, v := range d.GFLOPS.Row(i) {
			fmt.Fprintf(bw, ",%.6g", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*PerfDataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	header := strings.Split(sc.Text(), ",")
	if len(header) < 4 || header[0] != "m" || header[1] != "k" || header[2] != "n" {
		return nil, fmt.Errorf("dataset: malformed CSV header")
	}
	configs := make([]gemm.Config, 0, len(header)-3)
	for _, name := range header[3:] {
		cfg, err := gemm.ParseConfig(name)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		configs = append(configs, cfg)
	}
	var shapes []gemm.Shape
	var rows [][]float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", len(shapes)+1, len(fields), len(header))
		}
		m, err1 := strconv.Atoi(fields[0])
		k, err2 := strconv.Atoi(fields[1])
		n, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("dataset: bad shape in row %d", len(shapes)+1)
		}
		row := make([]float64, len(fields)-3)
		for j, f := range fields[3:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: bad score %q in row %d", f, len(shapes)+1)
			}
			row[j] = v
		}
		shapes = append(shapes, gemm.Shape{M: m, K: k, N: n})
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(shapes) == 0 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}
	d := &PerfDataset{
		Shapes:  shapes,
		Configs: configs,
		GFLOPS:  mat.FromRows(rows),
	}
	d.normalize()
	return d, nil
}
