package serve

import (
	"math"
	"sync"
	"sync/atomic"

	"kernelselect/internal/gemm"
)

// The served-shape window is the closed loop's view of live traffic: every
// decision appends its shape, and the maintenance pass reads the window to
// score drift against the training mix and decide whether a shadow retrain
// is warranted. The window is bounded and sliding — old traffic ages
// out as new traffic arrives — so the loop always reasons about the recent
// mix, not the lifetime aggregate.

// windowShards spreads the append mutex so the hot path never serializes on
// one lock; 8 shards keeps contention negligible at saturation-knee request
// rates while the snapshot still sees every entry.
const windowShards = 8

// shapeWindow is a bounded sliding window of served shapes, sharded round-
// robin so concurrent appenders rarely contend. Each shard is a ring: once
// full, new entries overwrite the oldest, which is exactly the sliding-window
// semantics the drift score wants.
type shapeWindow struct {
	next   atomic.Uint64 // round-robin shard cursor
	shards [windowShards]windowShard
}

type windowShard struct {
	mu   sync.Mutex
	buf  []gemm.Shape
	n    int // entries filled (≤ len(buf))
	head int // next write position
}

// newShapeWindow sizes a window holding ~capacity shapes; capacity <= 0
// returns nil (window disabled — the closed loop is off).
func newShapeWindow(capacity int) *shapeWindow {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + windowShards - 1) / windowShards
	w := &shapeWindow{}
	for i := range w.shards {
		w.shards[i].buf = make([]gemm.Shape, per)
	}
	return w
}

// add appends one served shape, evicting the shard's oldest entry when full.
// It allocates nothing and holds one shard mutex for a few instructions, so
// it is safe on the 0-alloc select path.
func (w *shapeWindow) add(s gemm.Shape) {
	sh := &w.shards[w.next.Add(1)&(windowShards-1)]
	sh.mu.Lock()
	sh.buf[sh.head] = s
	sh.head++
	if sh.head == len(sh.buf) {
		sh.head = 0
	}
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
}

// snapshot copies the window's current contents. Order interleaves across
// shards; the consumers (drift scoring, retraining) care
// only about the distribution, never the sequence.
func (w *shapeWindow) snapshot() []gemm.Shape {
	out := make([]gemm.Shape, 0, w.size())
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf[:sh.n]...)
		sh.mu.Unlock()
	}
	return out
}

// size reports the shapes currently held.
func (w *shapeWindow) size() int {
	n := 0
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// shapeMix is a discrete shape distribution: shape → probability mass.
type shapeMix map[gemm.Shape]float64

// mixOf builds the empirical distribution of a shape list (duplicates count).
func mixOf(shapes []gemm.Shape) shapeMix {
	if len(shapes) == 0 {
		return shapeMix{}
	}
	counts := make(map[gemm.Shape]int, len(shapes))
	for _, s := range shapes {
		counts[s]++
	}
	mix := make(shapeMix, len(counts))
	n := float64(len(shapes))
	for s, c := range counts {
		mix[s] = float64(c) / n
	}
	return mix
}

// driftEps is the probability floor substituted for zero-mass categories in
// the PSI computation, so log ratios stay finite when a shape appears on one
// side only.
const driftEps = 1e-9

// driftPSI scores how far the live window's shape distribution has moved from
// the reference (training-time) mix, as a population stability index:
//
//	PSI = Σ (p_live − p_ref) · ln(p_live / p_ref)
//
// summed over the reference support plus one pooled "unseen" category for
// live mass outside it. Every term is non-negative (both factors share a
// sign), so PSI ≥ 0, and when the window's proportions equal the reference's
// exactly, every term is exactly 0 — identical real ratios round to identical
// float64s, so the score is 0.0, not merely small. Conventional reading: <0.1
// stable, 0.1–0.25 moderate shift, >0.25 retrain-worthy.
func driftPSI(ref shapeMix, window []gemm.Shape) float64 {
	if len(ref) == 0 || len(window) == 0 {
		return 0
	}
	counts := make(map[gemm.Shape]int, len(ref))
	unseen := 0
	for _, s := range window {
		if _, ok := ref[s]; ok {
			counts[s]++
		} else {
			unseen++
		}
	}
	n := float64(len(window))
	score := 0.0
	for s, pr := range ref {
		pl := float64(counts[s]) / n
		if pl == pr {
			continue // exact match contributes exactly 0
		}
		if pl == 0 {
			pl = driftEps
		}
		if pr == 0 {
			pr = driftEps
		}
		score += (pl - pr) * math.Log(pl/pr)
	}
	if unseen > 0 {
		pl := float64(unseen) / n
		score += (pl - driftEps) * math.Log(pl/driftEps)
	}
	return score
}
