// Package kernelselect's benchmark harness regenerates every figure and
// table of the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFig1Dataset      — the brute-force tuning stage behind Figure 1
//	BenchmarkFig2WinCounts    — Figure 2's optimum counting
//	BenchmarkFig3PCA          — Figure 3's variance spectrum
//	BenchmarkFig4Pruning      — Figure 4, one sub-benchmark per method
//	BenchmarkTable1Classifiers— Table I, one sub-benchmark per classifier
//	BenchmarkSelectorLatency  — Section IV's selection-cost argument
//	BenchmarkGEMMKernels      — the SYCL-style kernels on the host executor
//	BenchmarkAblation*        — design-choice ablations from DESIGN.md
//
// The key result of each experiment is attached to the benchmark output as a
// custom metric (score percentages, component counts, win counts), so a
// bench run doubles as a results table.
package kernelselect

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/experiments"
	"kernelselect/internal/gemm"
	"kernelselect/internal/ml/hdbscan"
	"kernelselect/internal/search"
	"kernelselect/internal/sim"
	"kernelselect/internal/simwave"
	"kernelselect/internal/sycl"
	"kernelselect/internal/workload"
	"kernelselect/internal/xrand"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func sharedBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.Setup(experiments.Default()) })
	return benchEnv
}

// BenchmarkFig1Dataset times the brute-force auto-tuning stage (every
// configuration priced on every workload shape) and reports the dataset's
// headline spread statistics.
func BenchmarkFig1Dataset(b *testing.B) {
	shapes, _ := workload.DatasetShapes()
	model := sim.New(device.R9Nano())
	var ds *dataset.PerfDataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds = dataset.Build(model, shapes, gemm.AllConfigs())
	}
	b.StopTimer()
	means := ds.MeanNormPerf()
	lo, hi := means[0], means[0]
	for _, m := range means {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	b.ReportMetric(100*lo, "worst-mean-%")
	b.ReportMetric(100*hi, "best-mean-%")
}

// BenchmarkFig2WinCounts reports Figure 2's structure: the top win count and
// the number of distinct winners.
func BenchmarkFig2WinCounts(b *testing.B) {
	env := sharedBenchEnv(b)
	var res experiments.Fig2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = env.Fig2()
	}
	b.StopTimer()
	b.ReportMetric(float64(res.TopWins), "top-wins")
	b.ReportMetric(float64(res.DistinctWinners), "distinct-winners")
}

// BenchmarkFig3PCA reports the component counts at the paper's thresholds.
func BenchmarkFig3PCA(b *testing.B) {
	env := sharedBenchEnv(b)
	var res experiments.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = env.Fig3()
	}
	b.StopTimer()
	b.ReportMetric(float64(res.At80), "comps@80%")
	b.ReportMetric(float64(res.At90), "comps@90%")
	b.ReportMetric(float64(res.At95), "comps@95%")
}

// BenchmarkFig4Pruning runs each pruning method at the paper's headline
// N=6 and reports the achievable test ceiling.
func BenchmarkFig4Pruning(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, p := range core.AllPruners() {
		b.Run(p.Name(), func(b *testing.B) {
			var score float64
			for i := 0; i < b.N; i++ {
				selected := p.Prune(env.Train, 6, env.Cfg.Seed)
				score = core.AchievableScore(env.Test, selected)
			}
			b.ReportMetric(score, "ceiling-%")
		})
	}
}

// BenchmarkTable1Classifiers trains and evaluates each classifier at N=8 on
// the decision-tree-pruned set, reporting the Table I score.
func BenchmarkTable1Classifiers(b *testing.B) {
	env := sharedBenchEnv(b)
	selected := core.DecisionTree{}.Prune(env.Train, 8, env.Cfg.Seed)
	for _, tr := range core.AllSelectorTrainers() {
		b.Run(tr.Name(), func(b *testing.B) {
			var score float64
			for i := 0; i < b.N; i++ {
				sel := tr.Train(env.Train, selected, env.Cfg.Seed)
				score = core.SelectorScore(env.Test, selected, sel)
			}
			b.ReportMetric(score, "table1-%")
		})
	}
}

// BenchmarkSelectorLatency measures the per-query cost of each trained
// selector — Section IV's deployment trade-off (decision trees must be
// near-free; kernel SVMs and k-NN pay per-query distance/kernel sums).
func BenchmarkSelectorLatency(b *testing.B) {
	env := sharedBenchEnv(b)
	selected := core.DecisionTree{}.Prune(env.Train, 8, env.Cfg.Seed)
	feats := make([][]float64, env.Test.NumShapes())
	for i, s := range env.Test.Shapes {
		feats[i] = s.Features()
	}
	for _, tr := range core.AllSelectorTrainers() {
		sel := tr.Train(env.Train, selected, env.Cfg.Seed)
		b.Run(sel.Name(), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += sel.Select(feats[i%len(feats)])
			}
			_ = sink
		})
	}
}

// BenchmarkGEMMKernels executes representative kernel configurations on the
// CPU work-group emulator and reports achieved (host) GFLOPS — the live
// measurement path that would replace the device model on real hardware.
func BenchmarkGEMMKernels(b *testing.B) {
	q := sycl.NewQueue(sycl.HostDevice())
	s := gemm.Shape{M: 256, N: 256, K: 256}
	r := xrand.New(1)
	a := make([]float64, s.M*s.K)
	bm := make([]float64, s.K*s.N)
	c := make([]float64, s.M*s.N)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range bm {
		bm[i] = r.Float64()
	}
	configs := []gemm.Config{
		{TileRows: 1, TileCols: 1, AccDepth: 1, WG: gemm.WorkGroup{R: 8, C: 8}},
		{TileRows: 4, TileCols: 4, AccDepth: 4, WG: gemm.WorkGroup{R: 8, C: 8}},
		{TileRows: 8, TileCols: 8, AccDepth: 8, WG: gemm.WorkGroup{R: 8, C: 8}},
		{TileRows: 4, TileCols: 4, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}},
		{TileRows: 2, TileCols: 8, AccDepth: 4, WG: gemm.WorkGroup{R: 1, C: 64}},
	}
	for _, cfg := range configs {
		b.Run(cfg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := gemm.Multiply(q, cfg, a, bm, c, s); err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(s.FLOPs())/secs/1e9, "host-gflops")
		})
	}
}

// BenchmarkAblationPCADims varies the retained-variance threshold of the
// PCA + k-means pruner: why 95% is the shipping default.
func BenchmarkAblationPCADims(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, thr := range []float64{0.80, 0.90, 0.95, 0.99} {
		b.Run(fmt.Sprintf("var%.0f%%", 100*thr), func(b *testing.B) {
			var rows []experiments.PCAThresholdRow
			for i := 0; i < b.N; i++ {
				rows = env.AblationPCAThresholds(8, []float64{thr})
			}
			b.ReportMetric(float64(rows[0].Components), "components")
			b.ReportMetric(rows[0].CeilingPct, "ceiling-%")
		})
	}
}

// BenchmarkAblationSplitSeed quantifies the paper's "small dataset, fails to
// generalize" caveat: the spread of the decision-tree ceiling across random
// train/test splits.
func BenchmarkAblationSplitSeed(b *testing.B) {
	env := sharedBenchEnv(b)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var res experiments.SplitSeedResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = env.AblationSplitSeeds(6, seeds)
	}
	b.StopTimer()
	b.ReportMetric(res.Mean, "mean-%")
	b.ReportMetric(res.Max-res.Min, "spread-%")
}

// BenchmarkAblationDevices reruns the pipeline per device model and reports
// the ceilings: the pipeline ports without change.
func BenchmarkAblationDevices(b *testing.B) {
	var rows []experiments.DeviceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationDevices(6, experiments.DefaultSeed, 0.2)
	}
	for _, r := range rows {
		b.ReportMetric(r.CeilingPct, r.Device+"-ceiling-%")
	}
}

// BenchmarkAblationWorkGroupOnly compares pruning over the full 640-point
// space against the 64 compile-time kernels with a fixed work-group: how
// much of the win needs run-time-settable work-group shapes at all.
func BenchmarkAblationWorkGroupOnly(b *testing.B) {
	var rows []experiments.SpaceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationWorkGroupOnly(6, experiments.DefaultSeed, 0.2)
	}
	for _, r := range rows {
		b.ReportMetric(r.CeilingPct, r.Space+"-%")
	}
}

// BenchmarkSearchStrategies compares the intelligent-search methods of the
// paper's conclusion on the extended (~18k configuration) space, reporting
// evaluations spent and fraction of the exhaustive optimum reached.
func BenchmarkSearchStrategies(b *testing.B) {
	sp := search.ExtendedSpace()
	model := sim.New(device.R9Nano())
	shape := gemm.Shape{M: 12544, K: 576, N: 128}
	obj := func(c gemm.Config) float64 { return model.GFLOPS(c, shape) }
	exact := search.BruteForce(sp, obj)

	strategies := []struct {
		name string
		run  func(seed uint64) search.Result
	}{
		{"brute-force", func(uint64) search.Result { return search.BruteForce(sp, obj) }},
		{"random", func(seed uint64) search.Result { return search.RandomSearch(sp, obj, 400, seed) }},
		{"hill-climb", func(seed uint64) search.Result { return search.HillClimb(sp, obj, 12, seed) }},
		{"basin-hopping", func(seed uint64) search.Result { return search.BasinHopping(sp, obj, 20, 0.1, seed) }},
		{"genetic", func(seed uint64) search.Result {
			return search.Genetic(sp, obj, search.GeneticOptions{Seed: seed, Generations: 30})
		}},
	}
	for _, st := range strategies {
		b.Run(st.name, func(b *testing.B) {
			var res search.Result
			for i := 0; i < b.N; i++ {
				res = st.run(uint64(7 + i))
			}
			b.ReportMetric(float64(res.Evaluations), "evals")
			b.ReportMetric(100*res.BestScore/exact.BestScore, "of-optimum-%")
		})
	}
}

// BenchmarkModelCrossValidation reports the rank agreement (Spearman rho)
// between the analytical model (internal/sim) and the wave-level
// microsimulator (internal/simwave) on a 64-configuration sample — the
// fidelity check for the substituted benchmark platform.
func BenchmarkModelCrossValidation(b *testing.B) {
	analytic := sim.New(device.R9Nano())
	micro := simwave.New(device.R9Nano())
	cfgs := gemm.AllConfigs()
	var sample []gemm.Config
	for i := 0; i < len(cfgs); i += 10 {
		sample = append(sample, cfgs[i])
	}
	shape := gemm.Shape{M: 12544, K: 576, N: 128}

	var rho float64
	for i := 0; i < b.N; i++ {
		av := make([]float64, len(sample))
		mv := make([]float64, len(sample))
		for j, cfg := range sample {
			av[j] = analytic.GFLOPS(cfg, shape)
			g, err := micro.GFLOPS(cfg, shape)
			if err != nil {
				b.Fatal(err)
			}
			mv[j] = g
		}
		rho = spearmanRho(av, mv)
	}
	b.ReportMetric(rho, "spearman")
}

func spearmanRho(a, bv []float64) float64 {
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return v[idx[x]] < v[idx[y]] })
		r := make([]float64, len(v))
		for rk, i := range idx {
			r[i] = float64(rk)
		}
		return r
	}
	ra, rb := rank(a), rank(bv)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// BenchmarkPrice times one scalar pricing of a (configuration, shape) pair,
// as search objectives and autotuning measurers call it.
func BenchmarkPrice(b *testing.B) {
	shapes, _ := workload.DatasetShapes()
	shapes = shapes[:16]
	configs := gemm.AllConfigs()[:40]
	m := sim.New(device.R9Nano())
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Price(configs[i%len(configs)], shapes[i%len(shapes)]).TotalSec
	}
	_ = sink
}

// BenchmarkRunAll times the full deterministic evaluation (Figures 1-4 and
// Table I) sequentially and on the full machine — the headline speedup of
// the parallel experiment engine.
func BenchmarkRunAll(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := experiments.Default()
			cfg.Workers = w
			env := experiments.Setup(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.RunAll()
			}
		})
	}
}

// BenchmarkHDBSCANCluster times density clustering over the training
// performance matrix at 1 worker and on the full machine; the pairwise
// distance matrix dominates.
func BenchmarkHDBSCANCluster(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hdbscan.Cluster(env.Train.Norm, hdbscan.Options{MinClusterSize: 4, Workers: w})
			}
		})
	}
}

// BenchmarkAblationTrainingShapes reports how an inference-tuned kernel set
// copes with the gradient GEMMs of one SGD step versus retuning on the full
// training workload.
func BenchmarkAblationTrainingShapes(b *testing.B) {
	var res experiments.TrainingShapesResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationTrainingShapes(8, experiments.DefaultSeed, 0.2, device.R9Nano())
	}
	b.ReportMetric(res.InferenceTunedPct, "inference-tuned-%")
	b.ReportMetric(res.RetunedPct, "retuned-%")
	b.ReportMetric(float64(res.TrainingShapes), "shapes")
}
