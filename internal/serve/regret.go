package serve

import (
	"math"

	"kernelselect/internal/gemm"
)

// Regret telemetry: a deterministic fraction of served decisions is stamped
// for background measurement against the per-shape optimum of a configuration
// universe (gemm.AllConfigs by default — every kernel the system could have
// generated, not just the library's pruned survivors). Regret for a decision
// is
//
//	1 − achieved GFLOPS / best GFLOPS over the universe
//
// clamped to [0, 1]: 0 means the selector picked a per-shape optimal config,
// 1 means it left all the performance on the table. This is the quantity the
// offline evaluation ranks selectors by; sampling it live closes the gap
// between "the selector tested well" and "the selector is serving well".
//
// Measurement happens strictly off the request path: the request goroutine
// only enqueues a fixed-size sample onto a bounded channel of regretQueue
// slots (dropping, counted, when full — never blocking), and a single worker
// prices the universe via the generation's vectorized batch pricer — the
// measurement describes decision quality, not client service.

// regretQueue bounds the background measurement queue.
const regretQueue = 1024

// regretSample is one sampled decision awaiting measurement. It pins the
// generation that produced the decision so the measurement prices the config
// actually served even if a reload lands before the worker gets to it.
type regretSample struct {
	be    *backend
	gen   *generation
	shape gemm.Shape
	cfg   gemm.Config
}

// account records one served decision (configuration index idx) into the
// closed-loop state: the per-backend decision counters, the served-shape
// window, and — for every regretEvery-th decision — the regret measurement
// queue. It runs on the request goroutine for every decision, so it must not
// allocate or block: the window append is a sharded ring store and a full
// queue drops the sample rather than waiting.
func (s *Server) account(be *backend, gen *generation, shape gemm.Shape, idx int) {
	if be.window != nil {
		be.window.add(shape)
	}
	n := be.decisions.Add(1)
	if s.regretEvery > 0 && n%s.regretEvery == 0 {
		be.sampled.Add(1)
		smp := regretSample{be: be, gen: gen, shape: shape, cfg: gen.lib.Configs[idx]}
		select {
		case s.regretQ <- smp:
		default:
			be.regretDropped.Add(1)
		}
		return
	}
	be.unsampled.Add(1)
}

// regretWorker drains the sample queue until the server closes. One worker is
// enough: a universe pricing pass costs tens of microseconds, so even a 100%
// sample rate at saturation-knee request rates stays ahead of the queue.
func (s *Server) regretWorker() {
	for {
		select {
		case <-s.stop:
			return
		case smp := <-s.regretQ:
			s.measureRegret(smp)
		}
	}
}

// measureRegret prices the universe for one sampled decision and folds the
// regret into the backend's histogram. Pricing goes through the generation's
// model: regret compares against the analytical optimum the offline pipeline
// uses.
func (s *Server) measureRegret(smp regretSample) float64 {
	gen := smp.gen
	rp := gen.uniPool.Get().(*[]float64)
	row := *rp
	gen.universe.PriceRow(row, smp.shape)
	best := 0.0
	for _, v := range row {
		if v > best {
			best = v
		}
	}
	gen.uniPool.Put(rp)
	achieved := gen.model.GFLOPS(smp.cfg, smp.shape)
	regret := 0.0
	if best > 0 {
		// When the served config is the universe argmax, achieved and best are
		// the same pricing (PriceRow is bit-identical to the scalar model), so
		// the division is x/x and the regret is exactly 0.
		regret = 1 - achieved/best
		if regret < 0 {
			regret = 0
		} else if regret > 1 {
			regret = 1
		}
	}
	smp.be.regretHist.observe(regret)
	return regret
}

// regretSettled reports whether every sample taken so far has been either
// measured or dropped — i.e. the background queue is drained. Tests poll it
// after traffic quiesces instead of sleeping.
func (be *backend) regretSettled() bool {
	return be.sampled.Load() == be.regretHist.count.Load()+be.regretDropped.Load()
}

// meanRegret reports the mean over a lib's choices on shapes, priced against
// gen's universe — the retrain gate's holdout quantity. Unlike the sampled
// path this is synchronous: the caller (the maintenance goroutine) is already
// off the request path.
func (s *Server) meanRegret(gen *generation, choose func(gemm.Shape) int, cfgs []gemm.Config, shapes []gemm.Shape) float64 {
	if len(shapes) == 0 {
		return 0
	}
	row := make([]float64, len(s.regretUniverse))
	sum := 0.0
	for _, sh := range shapes {
		gen.universe.PriceRow(row, sh)
		best := 0.0
		for _, v := range row {
			if v > best {
				best = v
			}
		}
		if best <= 0 {
			continue
		}
		achieved := gen.model.GFLOPS(cfgs[choose(sh)], sh)
		if r := 1 - achieved/best; r > 0 {
			sum += math.Min(r, 1)
		}
	}
	return sum / float64(len(shapes))
}
