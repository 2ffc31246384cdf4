package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// routerMetrics is the router's dependency-free Prometheus-text registry for
// its control plane; selects and batches are counted by the engine. Fixed
// counters are plain atomics; the per-endpoint-per-code request counters live
// in a sync.Map keyed "endpoint|code".
type routerMetrics struct {
	requests sync.Map // "endpoint|code" -> *atomic.Uint64

	probes     atomic.Uint64 // health probes issued
	merges     atomic.Uint64 // gossip entries adopted from peers
	reloads    atomic.Uint64 // replica reloads orchestrated
	pullErrors atomic.Uint64 // artifact pulls that failed or could not be adopted

	reps []string
}

func newRouterMetrics(replicas []string) *routerMetrics {
	return &routerMetrics{reps: append([]string(nil), replicas...)}
}

// request counts one response of a control endpoint.
func (m *routerMetrics) request(endpoint string, code int) {
	key := fmt.Sprintf("%s|%d", endpoint, code)
	c, ok := m.requests.Load(key)
	if !ok {
		c, _ = m.requests.LoadOrStore(key, &atomic.Uint64{})
	}
	c.(*atomic.Uint64).Add(1)
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
	counter("router_probes_total", m.probes.Load())
	counter("router_gossip_merges_total", m.merges.Load())
	counter("router_reloads_total", m.reloads.Load())
	counter("router_replica_errors_total", m.pullErrors.Load())

	b.WriteString("# TYPE router_replica_up gauge\n")
	for _, name := range m.reps {
		fmt.Fprintf(&b, "router_replica_up{replica=%q} %g\n", name, upFn(name))
	}
	return b.String()
}
