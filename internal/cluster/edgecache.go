package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"

	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

// The edge cache is the router's first layer: a sharded LRU over pre-rendered
// decision bodies keyed on (device, m, k, n), stamped with the generation of
// the replica that produced each body. The replica tier already proved the
// paper's premise — a decision for a (device, shape) is pure until the
// artifact changes — so the router can answer repeats without a network hop,
// provided coherence is exact: an entry is served only while its owning
// replica's generation register still matches its stamp, registers advance
// from the gossiped health view (probes, merges, orchestrated reloads) and
// from newer bodies flowing through, and degraded answers are never cached at
// all (mirroring the replica-tier rule — a degraded body reflects transient
// pressure, not the artifact).

// edgeEntry is one cached decision: the immutable pre-rendered response body
// (newline-terminated, exactly what the replica served), the replica index
// that produced it, and the generation it was produced under.
type edgeEntry struct {
	shape gemm.Shape
	rep   int
	gen   uint64
	body  []byte
}

// edgeShard is one lock domain of a device channel's LRU.
type edgeShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently served
	items map[gemm.Shape]*list.Element
}

// deviceEdge holds one request-device channel. regs[rep] is the newest
// generation the router has learned for that replica on this channel; an
// entry whose stamp differs from its owner's register is stale and is evicted
// on sight.
type deviceEdge struct {
	device string
	regs   []atomic.Uint64
	shards []edgeShard
	mask   uint64
}

const edgeShardCount = 16 // power of two; lock striping for the per-shard LRUs

// edgeCache is the router-wide cache: one deviceEdge per request-device
// string (the raw "device" field of the request, "" for the default route).
type edgeCache struct {
	mu       sync.RWMutex
	byDevice map[string]*deviceEdge
	replicas int
	capacity int // entries per device channel

	metrics *routerMetrics
}

func newEdgeCache(capacity, replicas int, metrics *routerMetrics) *edgeCache {
	return &edgeCache{
		byDevice: make(map[string]*deviceEdge, 4),
		replicas: replicas,
		capacity: capacity,
		metrics:  metrics,
	}
}

func (c *edgeCache) newDeviceEdge(device string) *deviceEdge {
	de := &deviceEdge{
		device: device,
		regs:   make([]atomic.Uint64, c.replicas),
		shards: make([]edgeShard, edgeShardCount),
		mask:   edgeShardCount - 1,
	}
	per := (c.capacity + edgeShardCount - 1) / edgeShardCount
	if per < 1 {
		per = 1
	}
	for i := range de.shards {
		de.shards[i].cap = per
		de.shards[i].lru = list.New()
		de.shards[i].items = make(map[gemm.Shape]*list.Element, per)
	}
	return de
}

func shapeShard(de *deviceEdge, shape gemm.Shape) *edgeShard {
	h := xrand.Hash64(uint64(shape.M), uint64(shape.K), uint64(shape.N))
	return &de.shards[h&de.mask]
}

// get returns the pre-rendered body for a live entry, or nil. The hit path
// allocates nothing: device is matched with a direct []byte map index, the
// generation check is one atomic load, and the returned body is the immutable
// cached slice. A stale entry (owner's register moved on) is evicted here and
// reported as a miss — a stale-generation hit is never served.
func (c *edgeCache) get(device []byte, shape gemm.Shape) []byte {
	c.mu.RLock()
	de := c.byDevice[string(device)]
	c.mu.RUnlock()
	if de == nil {
		c.metrics.edgeMisses.Add(1)
		return nil
	}
	sh := shapeShard(de, shape)
	sh.mu.Lock()
	el, ok := sh.items[shape]
	if !ok {
		sh.mu.Unlock()
		c.metrics.edgeMisses.Add(1)
		return nil
	}
	e := el.Value.(*edgeEntry)
	if de.regs[e.rep].Load() != e.gen {
		sh.lru.Remove(el)
		delete(sh.items, shape)
		sh.mu.Unlock()
		c.metrics.edgeMisses.Add(1)
		c.metrics.edgeInvalidations.Add(1)
		return nil
	}
	sh.lru.MoveToFront(el)
	// Read the body under the lock: a concurrent put of the same shape
	// rewrites the entry in place.
	body := e.body
	sh.mu.Unlock()
	c.metrics.edgeHits.Add(1)
	return body
}

// deviceFor returns (creating on first use) the channel for one
// request-device string.
func (c *edgeCache) deviceFor(device string) *deviceEdge {
	c.mu.RLock()
	de := c.byDevice[device]
	c.mu.RUnlock()
	if de != nil {
		return de
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if de = c.byDevice[device]; de == nil {
		de = c.newDeviceEdge(device)
		c.byDevice[device] = de
	}
	return de
}

// advanceReg moves a replica's generation register forward to gen, evicting
// that replica's now-stale entries on a bump. Returns false when gen is older
// than the register — the caller's body is a stale racer and must not be
// cached.
func (c *edgeCache) advanceReg(de *deviceEdge, rep int, gen uint64) bool {
	for {
		cur := de.regs[rep].Load()
		if gen < cur {
			return false
		}
		if gen == cur {
			return true
		}
		if de.regs[rep].CompareAndSwap(cur, gen) {
			if cur != 0 {
				c.evictStale(de, rep)
			}
			return true
		}
	}
}

// put caches one non-degraded body stamped (rep, gen). body must be immutable
// and newline-terminated. gen 0 (no generation stamp) is never cached.
func (c *edgeCache) put(device string, shape gemm.Shape, rep int, gen uint64, body []byte) {
	if gen == 0 || rep < 0 || rep >= c.replicas {
		return
	}
	de := c.deviceFor(device)
	if !c.advanceReg(de, rep, gen) {
		return
	}
	sh := shapeShard(de, shape)
	sh.mu.Lock()
	if el, ok := sh.items[shape]; ok {
		e := el.Value.(*edgeEntry)
		e.rep, e.gen, e.body = rep, gen, body
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	if sh.lru.Len() >= sh.cap {
		if back := sh.lru.Back(); back != nil {
			sh.lru.Remove(back)
			delete(sh.items, back.Value.(*edgeEntry).shape)
		}
	}
	sh.items[shape] = sh.lru.PushFront(&edgeEntry{shape: shape, rep: rep, gen: gen, body: body})
	sh.mu.Unlock()
}

// evictStale removes every entry owned by rep whose stamp no longer matches
// the (already-advanced) register.
func (c *edgeCache) evictStale(de *deviceEdge, rep int) {
	cur := de.regs[rep].Load()
	for si := range de.shards {
		sh := &de.shards[si]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*edgeEntry)
			if e.rep == rep && e.gen != cur {
				sh.lru.Remove(el)
				delete(sh.items, e.shape)
				c.metrics.edgeInvalidations.Add(1)
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

// noteGens folds one health observation's per-backend generations into every
// device channel: a channel whose request-device names a backend takes that
// backend's generation exactly; the default channel ("") and channels the map
// does not name conservatively take the highest backend generation — server
// generation counters only advance, so the worst case is evicting a few
// still-valid entries, never serving a stale one.
func (c *edgeCache) noteGens(rep int, gens map[string]uint64) {
	if len(gens) == 0 || rep < 0 || rep >= c.replicas {
		return
	}
	var maxGen uint64
	for _, g := range gens {
		if g > maxGen {
			maxGen = g
		}
	}
	c.mu.RLock()
	des := make([]*deviceEdge, 0, len(c.byDevice))
	for _, de := range c.byDevice {
		des = append(des, de)
	}
	c.mu.RUnlock()
	for _, de := range des {
		g, ok := gens[de.device]
		if !ok {
			g = maxGen
		}
		c.advanceReg(de, rep, g)
	}
}

// reg reads a replica's current generation register on one channel (0 when
// the channel does not exist yet). Test and audit plumbing.
func (c *edgeCache) reg(device string, rep int) uint64 {
	c.mu.RLock()
	de := c.byDevice[device]
	c.mu.RUnlock()
	if de == nil || rep < 0 || rep >= c.replicas {
		return 0
	}
	return de.regs[rep].Load()
}

// forEach visits every live entry (audit plumbing: the chaos suite walks the
// cache after a run to assert coherence).
func (c *edgeCache) forEach(fn func(device string, e edgeEntry)) {
	c.mu.RLock()
	type chann struct {
		device string
		de     *deviceEdge
	}
	chans := make([]chann, 0, len(c.byDevice))
	for d, de := range c.byDevice {
		chans = append(chans, chann{d, de})
	}
	c.mu.RUnlock()
	for _, ch := range chans {
		for si := range ch.de.shards {
			sh := &ch.de.shards[si]
			sh.mu.Lock()
			for el := sh.lru.Front(); el != nil; el = el.Next() {
				fn(ch.device, *el.Value.(*edgeEntry))
			}
			sh.mu.Unlock()
		}
	}
}

// len counts live entries across every channel (test plumbing).
func (c *edgeCache) len() int {
	n := 0
	c.forEach(func(string, edgeEntry) { n++ })
	return n
}
