package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

// decisionCache is a sharded LRU of kernel-selection decisions keyed by GEMM
// shape. Repeat shapes dominate serving traffic — a neural network asks for
// the same layer shapes on every training step — so hit rates in steady
// state approach 100% and the cache turns per-request pricing into a map
// lookup. Sharding (shape-hashed, power-of-two shard count) keeps lock
// contention negligible under concurrent handlers.
type decisionCache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[gemm.Shape]*list.Element
}

type cacheEntry struct {
	key gemm.Shape
	dec Decision
}

// cacheShards is the shard count every generation's cache is built with.
const cacheShards = 16

// newDecisionCache builds a cache of roughly `capacity` total entries spread
// over `shards` shards (both floored to sane minimums; shards is rounded up
// to a power of two, and a cache smaller than its shard count gets one
// shard). A capacity <= 0 returns nil — the no-cache mode.
func newDecisionCache(capacity, shards int) *decisionCache {
	if capacity <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	if shards > capacity {
		shards = 1
	}
	perShard := (capacity + shards - 1) / shards
	c := &decisionCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:   perShard,
			order: list.New(),
			byKey: make(map[gemm.Shape]*list.Element, perShard),
		}
	}
	return c
}

func (c *decisionCache) shard(s gemm.Shape) *cacheShard {
	h := xrand.Hash64(uint64(s.M), uint64(s.K), uint64(s.N))
	return &c.shards[h&c.mask]
}

// get returns the cached decision for the shape, refreshing its recency.
func (c *decisionCache) get(s gemm.Shape) (Decision, bool) {
	if c == nil {
		return Decision{}, false
	}
	sh := c.shard(s)
	sh.mu.Lock()
	el, ok := sh.byKey[s]
	if ok {
		sh.order.MoveToFront(el)
		dec := el.Value.(*cacheEntry).dec
		sh.mu.Unlock()
		c.hits.Add(1)
		return dec, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return Decision{}, false
}

// put inserts (or refreshes) a decision, evicting the shard's least recently
// used entry when full.
func (c *decisionCache) put(s gemm.Shape, d Decision) {
	if c == nil {
		return
	}
	sh := c.shard(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byKey[s]; ok {
		el.Value.(*cacheEntry).dec = d
		sh.order.MoveToFront(el)
		return
	}
	if sh.order.Len() >= sh.cap {
		oldest := sh.order.Back()
		if oldest != nil {
			sh.order.Remove(oldest)
			delete(sh.byKey, oldest.Value.(*cacheEntry).key)
		}
	}
	sh.byKey[s] = sh.order.PushFront(&cacheEntry{key: s, dec: d})
}

// forEach calls fn for every cached decision. It exists for invariant
// checks (the chaos suite asserts no degraded or aborted decision is ever
// cached); each shard is locked only while it is walked.
func (c *decisionCache) forEach(fn func(Decision)) {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			fn(el.Value.(*cacheEntry).dec)
		}
		sh.mu.Unlock()
	}
}

// len returns the total number of cached decisions.
func (c *decisionCache) len() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.order.Len()
		sh.mu.Unlock()
	}
	return total
}

// stats returns cumulative hit and miss counts.
func (c *decisionCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
