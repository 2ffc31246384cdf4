package cluster

import (
	"context"
	"sync"
)

// Replica liveness states as seen by the router's health table.
const (
	// StateUp: the replica answers health probes.
	StateUp = "up"
	// StateDown: a probe failed, or a rolling reload of it (or the pull
	// after it) did.
	StateDown = "down"
	// StateWarming: the router is reloading the replica; probes leave it
	// alone until the reload and the router's pull of it finish.
	StateWarming = "warming"
)

// ReplicaHealth is one replica's entry in the gossiped cluster view. Seq is a
// per-replica observation sequence number: every local state observation bumps
// it, and merging two views keeps the entry with the higher Seq, so routers
// exchanging views converge on the newest observation of each replica without
// a coordinator.
type ReplicaHealth struct {
	Name        string            `json:"name"`
	State       string            `json:"state"`
	Seq         uint64            `json:"seq"`
	Generations map[string]uint64 `json:"generations,omitempty"`
	Err         string            `json:"error,omitempty"`
}

// View is the GET /v1/cluster body: the router's current belief about every
// replica, plus its own identity for gossip attribution.
type View struct {
	Router   string          `json:"router,omitempty"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// healthTable is the router's mutable health state behind the gossiped view.
type healthTable struct {
	mu      sync.Mutex
	order   []string
	entries map[string]*ReplicaHealth

	// onGens, when set (before any concurrent use), fires after every local
	// observation or adopted merge that carries per-device generations — the
	// router's catch-up feed. Called outside the table lock.
	onGens func(name string, gens map[string]uint64)
}

func newHealthTable(names []string) *healthTable {
	t := &healthTable{order: append([]string(nil), names...), entries: make(map[string]*ReplicaHealth, len(names))}
	for _, n := range names {
		// Replicas start optimistically up: the first failed probe demotes
		// a dead one.
		t.entries[n] = &ReplicaHealth{Name: n, State: StateUp}
	}
	return t
}

// observe records a local observation of one replica, bumping its Seq so the
// observation wins any later gossip merge against staler entries.
func (t *healthTable) observe(name, state string, gens map[string]uint64, errMsg string) {
	t.mu.Lock()
	e, ok := t.entries[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	e.State = state
	e.Seq++
	e.Err = errMsg
	if gens != nil {
		e.Generations = gens
	}
	hook := t.onGens
	t.mu.Unlock()
	if hook != nil && gens != nil {
		hook(name, gens)
	}
}

// state reads one replica's current state ("" for an unknown name).
func (t *healthTable) state(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[name]; ok {
		return e.State
	}
	return ""
}

// snapshot renders the view in stable replica order.
func (t *healthTable) snapshot(router string) View {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := View{Router: router, Replicas: make([]ReplicaHealth, 0, len(t.order))}
	for _, n := range t.order {
		e := *t.entries[n]
		if e.Generations != nil {
			gens := make(map[string]uint64, len(e.Generations))
			for d, g := range e.Generations {
				gens[d] = g
			}
			e.Generations = gens
		}
		v.Replicas = append(v.Replicas, e)
	}
	return v
}

// merge folds a peer's gossiped view in: per replica, the higher Seq wins.
// Equal Seq keeps the local entry (local observations are at least as fresh).
// Unknown replica names are ignored — the fleet roster is static per router.
func (t *healthTable) merge(v View) (adopted int) {
	t.mu.Lock()
	var genUpdates []ReplicaHealth
	for _, remote := range v.Replicas {
		local, ok := t.entries[remote.Name]
		if !ok || remote.Seq <= local.Seq {
			continue
		}
		e := remote
		t.entries[remote.Name] = &e
		adopted++
		if t.onGens != nil && remote.Generations != nil {
			genUpdates = append(genUpdates, remote)
		}
	}
	hook := t.onGens
	t.mu.Unlock()
	for _, u := range genUpdates {
		hook(u.Name, u.Generations)
	}
	return adopted
}

// upCount reports replicas currently up.
func (t *healthTable) upCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if e.State == StateUp {
			n++
		}
	}
	return n
}

// ProbeOnce health-probes every replica once, concurrently, and folds the
// results into the view: an answering replica is marked up with its
// per-device generations (and the router pulls any that is newer than what
// it serves), a failing one down with the error. Replicas the router is
// actively reloading are left alone until cutover. Deterministic tests and
// the chaos harness call this directly; production runs it on
// ProbeInterval.
func (r *Router) ProbeOnce(ctx context.Context) View {
	var wg sync.WaitGroup
	for _, rep := range r.replicas {
		if r.health.state(rep.Name) == StateWarming {
			continue
		}
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			gens, err := rep.Probe(ctx)
			r.metrics.probes.Add(1)
			if err != nil {
				r.health.observe(rep.Name, StateDown, nil, err.Error())
				return
			}
			r.health.observe(rep.Name, StateUp, gens, "")
		}(rep)
	}
	wg.Wait()
	return r.health.snapshot(r.name)
}
