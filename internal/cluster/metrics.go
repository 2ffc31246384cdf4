package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// routerMetrics is the router's dependency-free Prometheus-text registry.
// Fixed counters are plain atomics; the per-endpoint-per-code request
// counters live in a sync.Map keyed "endpoint|code" (read-mostly after the
// first request of each kind). The hot path pre-resolves its counter once via
// counter() so a cache hit costs one atomic add, not a map lookup and a
// formatted key.
type routerMetrics struct {
	requests sync.Map // "endpoint|code" -> *atomic.Uint64

	retries   atomic.Uint64 // sequential failover attempts beyond the first
	hedges    atomic.Uint64 // hedged attempts launched
	hedgeWins atomic.Uint64 // requests won by the hedge, counted once
	fallbacks atomic.Uint64 // router-local degraded answers (replica_down)
	probes    atomic.Uint64 // health probes issued
	merges    atomic.Uint64 // gossip entries adopted from peers
	reloads   atomic.Uint64 // replica reloads orchestrated
	repErrors atomic.Uint64 // failed replica calls: transport errors, and batch 429/5xx

	// Edge cache traffic.
	edgeHits          atomic.Uint64
	edgeMisses        atomic.Uint64
	edgeInvalidations atomic.Uint64

	// wins counts, per replica, responses actually returned to a client —
	// a hedged request increments exactly one replica's counter.
	wins []atomic.Uint64
	reps []string
}

func newRouterMetrics(replicas []string) *routerMetrics {
	return &routerMetrics{wins: make([]atomic.Uint64, len(replicas)), reps: append([]string(nil), replicas...)}
}

// counter resolves (creating on first use) the request counter for one
// endpoint/code pair, so hot paths can hold the *atomic.Uint64 directly.
func (m *routerMetrics) counter(endpoint string, code int) *atomic.Uint64 {
	key := fmt.Sprintf("%s|%d", endpoint, code)
	c, ok := m.requests.Load(key)
	if !ok {
		c, _ = m.requests.LoadOrStore(key, &atomic.Uint64{})
	}
	return c.(*atomic.Uint64)
}

func (m *routerMetrics) request(endpoint string, code int) {
	m.counter(endpoint, code).Add(1)
}

// render emits the router series; upFn supplies the health gauge per replica.
func (m *routerMetrics) render(upFn func(name string) float64) string {
	var b strings.Builder
	b.WriteString("# TYPE router_requests_total counter\n")
	type kv struct {
		key string
		val uint64
	}
	var reqs []kv
	m.requests.Range(func(k, v any) bool {
		reqs = append(reqs, kv{k.(string), v.(*atomic.Uint64).Load()})
		return true
	})
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].key < reqs[j].key })
	for _, r := range reqs {
		parts := strings.SplitN(r.key, "|", 2)
		fmt.Fprintf(&b, "router_requests_total{endpoint=%q,code=%q} %d\n", parts[0], parts[1], r.val)
	}

	counter := func(name string, v uint64) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	counter("router_retries_total", m.retries.Load())
	counter("router_hedges_total", m.hedges.Load())
	counter("router_hedge_wins_total", m.hedgeWins.Load())
	counter("router_fallback_total", m.fallbacks.Load())
	counter("router_probes_total", m.probes.Load())
	counter("router_gossip_merges_total", m.merges.Load())
	counter("router_reloads_total", m.reloads.Load())
	counter("router_replica_errors_total", m.repErrors.Load())
	counter("router_edge_cache_hits_total", m.edgeHits.Load())
	counter("router_edge_cache_misses_total", m.edgeMisses.Load())
	counter("router_edge_cache_invalidations_total", m.edgeInvalidations.Load())

	b.WriteString("# TYPE router_replica_wins_total counter\n")
	for i, name := range m.reps {
		fmt.Fprintf(&b, "router_replica_wins_total{replica=%q} %d\n", name, m.wins[i].Load())
	}
	b.WriteString("# TYPE router_replica_up gauge\n")
	for _, name := range m.reps {
		fmt.Fprintf(&b, "router_replica_up{replica=%q} %g\n", name, upFn(name))
	}
	return b.String()
}
