package serve

import (
	"math"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// worstGeomeanIndex is the argmin counterpart of the fallback computation —
// the config a deliberately bad retrain candidate pins itself to.
func worstGeomeanIndex(model *sim.Model, cfgs []gemm.Config, shapes []gemm.Shape) int {
	worst, worstScore := 0, math.Inf(1)
	for i, cfg := range cfgs {
		sum := 0.0
		for _, sh := range shapes {
			sum += math.Log(model.GFLOPS(cfg, sh))
		}
		if sum < worstScore {
			worst, worstScore = i, sum
		}
	}
	return worst
}

// shiftedShapes is a transformer-style traffic mix disjoint from reloadShapes
// — the serving-time distribution shift the closed loop exists to detect. The
// incumbent libraries in these tests never train on any of them.
var shiftedShapes = []gemm.Shape{
	{M: 128, K: 768, N: 768}, {M: 128, K: 768, N: 3072}, {M: 128, K: 3072, N: 768},
	{M: 512, K: 1024, N: 1024}, {M: 512, K: 1024, N: 4096}, {M: 512, K: 4096, N: 1024},
}

// TestClosedLoopRetrainReducesRegret is the end-to-end acceptance check for
// the closed loop, fully deterministic (seeded traffic, synchronous Maintain,
// no wall-clock sleeps beyond queue-drain polling):
//
//	shifted mix → drift crosses the threshold → shadow retrain fires → both
//	gates pass → promotion through Reload → post-swap sampled regret on the
//	same mix is no worse than pre-swap.
func TestClosedLoopRetrainReducesRegret(t *testing.T) {
	model := sim.New(device.R9Nano())
	universe := gemm.AllConfigs()[:120]
	incumbent := buildLib(t, model, 6) // trained on reloadShapes only

	retrains := 0
	opts := Options{
		TrainShapes:      reloadShapes,
		RegretSample:     1,
		RegretUniverse:   universe,
		WindowSize:       512,
		DriftThreshold:   0.25,
		RetrainMinWindow: 16,
		Retrain: func(dev string, m *sim.Model, shapes []gemm.Shape) (*core.Library, error) {
			retrains++
			if dev != model.Dev.Name {
				t.Errorf("retrain asked for device %q", dev)
			}
			ds := dataset.Build(m, shapes, universe)
			return core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 6, 42), nil
		},
	}
	srv := New(incumbent, model, opts)
	defer srv.Close()
	be := srv.backends[0]
	gen0 := be.gen.Load()

	drive := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for _, sh := range shiftedShapes {
				if _, err := srv.Decide(be.name, sh); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitSettled(t, be)
	}

	drive(8) // 48 shifted decisions, all sampled and measured
	pre := be.regretHist.snapshot()
	if pre.count == 0 {
		t.Fatal("no pre-swap regret measurements landed")
	}

	srv.Maintain()

	if score := be.driftScore(); score <= opts.DriftThreshold {
		t.Fatalf("shifted mix scored drift %.4f, needed > %.2f to trigger a retrain", score, opts.DriftThreshold)
	}
	if retrains != 1 {
		t.Fatalf("retrain ran %d times, want 1", retrains)
	}
	evs := srv.RetrainEvents()
	if len(evs) != 1 {
		t.Fatalf("retrain events %+v, want exactly one", evs)
	}
	ev := evs[0]
	if !ev.Accepted || ev.Reason != "promoted" {
		t.Fatalf("candidate not promoted: %+v", ev)
	}
	if ev.CandidateRegret > ev.IncumbentRegret+1e-12 {
		t.Fatalf("promoted candidate's holdout regret %.6f exceeds incumbent %.6f", ev.CandidateRegret, ev.IncumbentRegret)
	}
	gen1 := be.gen.Load()
	if gen1.id <= gen0.id || ev.Generation != gen1.id {
		t.Fatalf("promotion generations inconsistent: was %d, serving %d, event %d", gen0.id, gen1.id, ev.Generation)
	}
	if be.retrainPromoted.Load() != 1 || be.retrainRejected.Load() != 0 || be.retrainErrors.Load() != 0 {
		t.Fatalf("retrain counters promoted=%d rejected=%d errors=%d, want 1/0/0",
			be.retrainPromoted.Load(), be.retrainRejected.Load(), be.retrainErrors.Load())
	}

	drive(8) // the same shifted mix through the promoted selector
	post := be.regretHist.snapshot()
	if post.count <= pre.count {
		t.Fatalf("no post-swap measurements: %d -> %d", pre.count, post.count)
	}
	preMean := pre.sum / float64(pre.count)
	postMean := (post.sum - pre.sum) / float64(post.count-pre.count)
	if postMean > preMean+1e-12 {
		t.Errorf("post-swap sampled regret %.6f worse than pre-swap %.6f", postMean, preMean)
	}
	t.Logf("drift %.3f; sampled regret %.6f -> %.6f over %d/%d measurements; holdout %.6f vs incumbent %.6f",
		ev.Drift, preMean, postMean, pre.count, post.count-pre.count, ev.CandidateRegret, ev.IncumbentRegret)

	// The loop must settle: promotion rebased the drift reference onto the
	// observed window, so the same traffic no longer reads as drift and the
	// next maintenance pass must not fire another retrain. Without the
	// rebase the loop promotes an identical candidate every pass, wiping
	// the decision cache each time.
	srv.Maintain()
	if score := be.driftScore(); score > opts.DriftThreshold {
		t.Errorf("drift %.4f still above threshold after promotion on unchanged traffic", score)
	}
	if retrains != 1 || be.retrainPromoted.Load() != 1 {
		t.Errorf("loop did not settle: %d retrains, %d promotions after a post-promotion pass on the same mix",
			retrains, be.retrainPromoted.Load())
	}
}

// A retrain whose candidate fails the holdout-regret gate must be rejected:
// counted, recorded, and invisible to live traffic — the serving generation
// and its library stay exactly as they were.
func TestRetrainRejectedCandidateNeverServes(t *testing.T) {
	model := sim.New(device.R9Nano())
	universe := gemm.AllConfigs()[:120]
	incumbent := buildLib(t, model, 6)

	// A static selector pinned to the worst geomean config: maximally bad,
	// guaranteed to lose the holdout-regret gate to any trained incumbent.
	worst := worstGeomeanIndex(model, incumbent.Configs, reloadShapes)
	bad, err := core.NewLibrary(incumbent.Configs, core.StaticSelector{Index: worst})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(incumbent, model, Options{
		TrainShapes:      reloadShapes,
		RegretUniverse:   universe,
		WindowSize:       512,
		DriftThreshold:   0.25,
		RetrainMinWindow: 16,
		Retrain: func(string, *sim.Model, []gemm.Shape) (*core.Library, error) {
			return bad, nil
		},
	})
	defer srv.Close()
	be := srv.backends[0]
	gen0 := be.gen.Load()

	for i := 0; i < 8; i++ {
		for _, sh := range shiftedShapes {
			if _, err := srv.Decide(be.name, sh); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Maintain()

	if got := be.retrainRejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	if got := be.retrainPromoted.Load(); got != 0 {
		t.Fatalf("promoted counter %d, want 0", got)
	}
	evs := srv.RetrainEvents()
	if len(evs) != 1 || evs[0].Accepted {
		t.Fatalf("retrain events %+v, want one rejection", evs)
	}
	if evs[0].CandidateRegret <= evs[0].IncumbentRegret {
		t.Fatalf("rejection without a regret deficit: %+v", evs[0])
	}
	gen1 := be.gen.Load()
	if gen1 != gen0 || gen1.lib != incumbent {
		t.Fatalf("rejected candidate touched live serving: generation %d -> %d", gen0.id, gen1.id)
	}
	d, err := srv.Decide(be.name, reloadShapes[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != gen0.id || d.Index != incumbent.ChooseIndex(reloadShapes[0]) {
		t.Fatalf("post-rejection decision %+v not from the incumbent", d)
	}
}
