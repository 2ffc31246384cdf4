package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/gemm"
)

const readyTimeout = 60 * time.Second

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	binDir   string
	workDir  string

	// tamper, when set, puts a proxy between the callers and the daemons
	// that may rewrite response bodies. The self-tests use it to prove that
	// a wrong answer fails the run.
	tamper func(path string, body []byte) []byte
}

// bench is one run's state: the stream, the oracle and the daemons.
type bench struct {
	opts options
	out  io.Writer
	st   *stream
	or   *oracle

	replicas []*daemon
	router   *daemon
	proxies  []*proxy
	target   string // address the callers use
	floor    string // GET path answered from a pre-rendered or trivial body

	artifact    string
	artifacts   [maxSlots][]byte
	ds          *dataset.PerfDataset
	baseGen     uint64
	reloadsDone int
	reloadMs    []float64
	warmed      []float64
	reloadErrs  []string

	rec *recorder // set by a traced run; records upstream calls while active

	cfgIndex map[string]int16 // config name -> index into gemm.AllConfigs
}

func newBench(opts options, out io.Writer) (*bench, error) {
	st, err := buildStream(opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, out: out, st: st, or: newOracle(len(st.devices)), cfgIndex: map[string]int16{}}
	for i, c := range gemm.AllConfigs() {
		b.cfgIndex[c.String()] = int16(i)
	}
	if opts.workload == "fleet-reload" {
		b.artifact = filepath.Join(opts.workDir, "library.json")
	} else {
		// The replica daemon trains in-process; the oracle reruns the same
		// pipeline here and is checked against what the daemon serves.
		for d, spec := range st.devices {
			_, lib := trainLibrary(spec)
			b.or.libs[d] = []*libOracle{newLibOracle(lib)}
		}
		b.or.fill(st)
	}
	return b, nil
}

// setup starts the workload's daemons from no artifacts and returns the
// time until every daemon answers /healthz and every backend is warm, with
// its listen and warm parts and the host's speed meanwhile. A port reserved
// for a daemon can be taken by another socket before the daemon binds it;
// such a set-up is torn down and started over.
func (b *bench) setup(traced bool) (setupTimes, error) {
	for attempt := 1; ; attempt++ {
		g := startGauge()
		total, listen, warm, err := b.setupOnce(traced)
		st := setupTimes{total, listen, warm, g.finish()}
		if err == nil || !errors.Is(err, errPortTaken) || attempt == 3 {
			return st, err
		}
		b.teardown()
	}
}

// setupTimes is one set-up: its wall time in seconds, with its listen and
// warm parts, and the gauge's median loop time over it in nanoseconds.
type setupTimes struct{ total, listen, warm, gauge float64 }

func (b *bench) setupOnce(traced bool) (total, listen, warm float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	// Every port of the set-up is reserved in one call, so no two daemons
	// are handed the same one.
	addrs, err := freeAddrs(8)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	var devices, library string
	n := 1
	if b.opts.workload == "fleet-reload" {
		ds, lib := trainLibrary(b.st.devices[0])
		var buf bytes.Buffer
		if err := core.SaveLibraryForDevice(&buf, lib, b.st.devices[0].Name); err != nil {
			return 0, 0, 0, fmt.Errorf("save artifact: %w", err)
		}
		if err := writeFileAtomic(b.artifact, buf.Bytes()); err != nil {
			return 0, 0, 0, err
		}
		b.ds, b.artifacts[0] = ds, buf.Bytes()
		devices, library, n = "r9nano", b.artifact, 3
	} else {
		devices = "r9nano,gen9,mali"
	}
	b.replicas = nil
	for i := 0; i < n; i++ {
		addr, pprofAddr := addrs[2*i], addrs[2*i+1]
		d, err := startDaemon(fmt.Sprintf("selectd-%d", i), filepath.Join(b.opts.binDir, "selectd"),
			selectdArgs(addr, pprofAddr, devices, library), addr, pprofAddr)
		if err != nil {
			return 0, 0, 0, err
		}
		b.replicas = append(b.replicas, d)
	}
	if err := waitAll(ctx, b.replicas, "/healthz", selectdListening); err != nil {
		return 0, 0, 0, err
	}
	tListen := time.Since(t0)
	if err := waitAll(ctx, b.replicas, "/healthz", selectdWarm); err != nil {
		return 0, 0, 0, err
	}
	warmD := time.Since(t0) - tListen
	b.target = b.replicas[0].addr
	b.floor = "/v1/configs"
	if b.opts.workload == "fleet-reload" {
		var urls []string
		for _, r := range b.replicas {
			upstream := r.addr
			if traced {
				p, err := startProxy(r.addr, b.recordUpstream, nil)
				if err != nil {
					return 0, 0, 0, err
				}
				b.proxies = append(b.proxies, p)
				upstream = p.addr
			}
			urls = append(urls, "http://"+upstream)
		}
		addr, pprofAddr := addrs[6], addrs[7]
		tr := time.Now()
		d, err := startDaemon("selectrouter", filepath.Join(b.opts.binDir, "selectrouter"),
			routerArgs(addr, pprofAddr, urls), addr, pprofAddr)
		if err != nil {
			return 0, 0, 0, err
		}
		b.router = d
		if err := waitFor(ctx, d, "/healthz", routerReady); err != nil {
			return 0, 0, 0, err
		}
		tListen += time.Since(tr)
		b.target = d.addr
		b.floor = "/healthz"
	}
	total = time.Since(t0).Seconds()
	if b.opts.tamper != nil {
		p, err := startProxy(b.target, nil, b.opts.tamper)
		if err != nil {
			return 0, 0, 0, err
		}
		b.proxies = append(b.proxies, p)
		b.target = p.addr
	}
	return total, tListen.Seconds(), warmD.Seconds(), nil
}

func waitAll(ctx context.Context, ds []*daemon, path string, ready func([]byte) bool) error {
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *daemon) {
			defer wg.Done()
			errs[i] = waitFor(ctx, d, path, ready)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// teardown stops every process and proxy the run started and waits for them.
func (b *bench) teardown() {
	if b.router != nil {
		b.router.stop()
		b.router = nil
	}
	for _, p := range b.proxies {
		p.close()
	}
	b.proxies = nil
	var wg sync.WaitGroup
	for _, d := range b.replicas {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
	b.replicas = nil
}

func (b *bench) daemons() []*daemon {
	ds := append([]*daemon(nil), b.replicas...)
	if b.router != nil {
		ds = append(ds, b.router)
	}
	return ds
}

// prepare checks the served libraries against the oracle and records the
// generations the daemons start at.
func (b *bench) prepare() error {
	if b.opts.workload == "fleet-reload" {
		spec := b.st.devices[0]
		a, err := core.LoadLibraryForDevice(bytes.NewReader(b.artifacts[0]), spec.Name)
		if err != nil {
			return fmt.Errorf("load artifact A: %w", err)
		}
		variant, err := reloadVariant(b.ds, a, b.opts.seed)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := core.SaveLibraryForDevice(&buf, variant, spec.Name); err != nil {
			return err
		}
		bl, err := core.LoadLibraryForDevice(bytes.NewReader(buf.Bytes()), spec.Name)
		if err != nil {
			return fmt.Errorf("load artifact B: %w", err)
		}
		b.artifacts[1] = buf.Bytes()
		b.or.libs[0] = []*libOracle{newLibOracle(a), newLibOracle(bl)}
		b.or.fill(b.st)
	}
	b.or.resetGens()
	b.reloadsDone, b.reloadMs, b.warmed = 0, nil, nil
	gens := map[uint64]bool{}
	for _, r := range b.replicas {
		body, err := httpGet("http://" + r.addr + "/healthz")
		if err != nil {
			return err
		}
		var h selectdHealth
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("%s healthz: %w", r.name, err)
		}
		for _, be := range h.Backends {
			d := b.deviceIndex(be.Device)
			if d < 0 {
				return fmt.Errorf("%s serves unexpected device %q", r.name, be.Device)
			}
			if err := b.or.setSlot(d, be.Generation, 0); err != nil {
				return err
			}
			gens[be.Generation] = true
			b.baseGen = be.Generation
			if err := b.checkConfigs(r, d); err != nil {
				return err
			}
		}
	}
	if b.opts.workload == "fleet-reload" && len(gens) != 1 {
		return fmt.Errorf("replicas start at different generations %v; reload stamps would be ambiguous", gens)
	}
	return nil
}

func (b *bench) deviceIndex(name string) int {
	for i, s := range b.st.devices {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// checkConfigs compares a daemon's served configuration list with the
// oracle's library for that device.
func (b *bench) checkConfigs(r *daemon, dev int) error {
	body, err := httpGet("http://" + r.addr + "/v1/configs?device=" + b.st.devices[dev].Name)
	if err != nil {
		return err
	}
	var cr struct {
		Selector string   `json:"selector"`
		Configs  []string `json:"configs"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("%s configs: %w", r.name, err)
	}
	lo := b.or.libs[dev][0]
	if cr.Selector != lo.lib.SelectorName() || fmt.Sprint(cr.Configs) != fmt.Sprint(lo.names) {
		return fmt.Errorf("%s serves %s %v on %s, but the oracle's library is %s %v",
			r.name, cr.Selector, cr.Configs, b.st.devices[dev].Name, lo.lib.SelectorName(), lo.names)
	}
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// phaseCounts is what one phase sent, and how it ended.
type phaseCounts struct {
	selects, selectsOK, selectsFailed int64
	wrong, degraded, cached           int64
	reloads, reloadsOK, reloadsFailed int64
	gets, getsOK, getsFailed          int64
}

func (p *phaseCounts) add(o phaseCounts) {
	p.selects += o.selects
	p.selectsOK += o.selectsOK
	p.selectsFailed += o.selectsFailed
	p.wrong += o.wrong
	p.degraded += o.degraded
	p.cached += o.cached
	p.reloads += o.reloads
	p.reloadsOK += o.reloadsOK
	p.reloadsFailed += o.reloadsFailed
	p.gets += o.gets
	p.getsOK += o.getsOK
	p.getsFailed += o.getsFailed
}

// phase is one phase's merged outcome.
type phase struct {
	name    string
	counts  phaseCounts
	lat     []int64 // select latencies, ns
	hitLat  []int64 // traced phases: latencies of cached answers
	missLat []int64 // traced phases: latencies of uncached answers
	quality []qualityRec
	changed [64]int64 // answers whose config a reload changed, by generation offset
	wrongs  []string
	spans   []span
	bodies  [][]byte
	stat    roundStat // an untraced measure phase's figures
	err     error     // why stat is missing
}

// roundStat is what one round's measured phase yields: select latency at the
// callers (ns), the daemons' CPU time per answered select (ns), and the share
// of the machine's CPU time the hypervisor took meanwhile.
type roundStat struct {
	lat                 []int64 // sorted
	p50, p99, cpuPerReq float64
	steal               float64
	gauge               float64 // median gaugeLoop time, ns
	n                   int
}

// caller is one closed-loop client: one connection, one stream position.
type caller struct {
	id  int
	cn  *conn
	pos int
	ph  phase
}

type phaseKind int

const (
	phaseWarmup phaseKind = iota
	phaseMeasure
	phaseFloor
)

// runPhase drives both callers through one phase. A warm-up phase sends each
// caller's warm-up selects; a measure phase sends selects until dur has
// passed (and, on fleet-reload, rolls one reload in line on caller 0); a
// floor phase sends GETs of the pre-rendered floor path. An untraced measure
// phase also yields its roundStat.
func (b *bench) runPhase(name string, kind phaseKind, callers []*caller, dur time.Duration, traced bool) *phase {
	var reloadAt []time.Duration
	if kind == phaseMeasure && b.opts.workload == "fleet-reload" {
		// One rolling reload in the middle of the phase, so every round's
		// tail sees the same reload pressure.
		reloadAt = []time.Duration{dur / 2}
	}
	capHint := 1024
	if kind != phaseWarmup {
		capHint = int(dur.Seconds()*40000) + 1024
	}
	// The callers allocate next to nothing; keeping the collector off during
	// the phase keeps the harness's own pauses out of the measured latency.
	gcPercent := debug.SetGCPercent(-1)
	measure := kind == phaseMeasure && !traced
	var u0 usage
	var uerr error
	var g *gauge
	if measure {
		u0, uerr = b.usage()
		g = startGauge()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range callers {
		c.ph = phase{name: name, lat: make([]int64, 0, capHint)}
		if traced {
			c.ph.spans = make([]span, 0, capHint)
			c.ph.hitLat = make([]int64, 0, capHint)
			c.ph.missLat = make([]int64, 0, capHint)
		}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			b.drive(c, kind, start, dur, reloadAt, traced)
		}(c)
	}
	wg.Wait()
	merged := &phase{name: name}
	if measure {
		u1, err := b.usage()
		merged.stat.gauge = g.finish()
		merged.err = errors.Join(uerr, err)
		merged.stat.cpuPerReq = float64(u1.ticks-u0.ticks) / clockTicksPerSecond * 1e9
		merged.stat.steal = u1.host.stealShare(u0.host)
	}
	debug.SetGCPercent(gcPercent)
	runtime.GC()

	for _, c := range callers {
		merged.counts.add(c.ph.counts)
		merged.lat = append(merged.lat, c.ph.lat...)
		merged.hitLat = append(merged.hitLat, c.ph.hitLat...)
		merged.missLat = append(merged.missLat, c.ph.missLat...)
		merged.quality = append(merged.quality, c.ph.quality...)
		merged.spans = append(merged.spans, c.ph.spans...)
		merged.bodies = append(merged.bodies, c.ph.bodies...)
		for i, n := range c.ph.changed {
			merged.changed[i] += n
		}
		merged.wrongs = append(merged.wrongs, c.ph.wrongs...)
	}
	if measure {
		st := &merged.stat
		st.lat = sortedCopy(merged.lat)
		st.n = len(st.lat)
		st.p50, st.p99 = percentile(st.lat, 0.5), percentile(st.lat, 0.99)
		st.cpuPerReq /= float64(max(st.n, 1))
	}
	return merged
}

func (b *bench) drive(c *caller, kind phaseKind, start time.Time, dur time.Duration, reloadAt []time.Duration, traced bool) {
	ph := &c.ph
	var a answer
	nextReload := 0
	for n := 0; ; n++ {
		now := time.Now()
		switch kind {
		case phaseWarmup:
			if n >= b.st.warm[c.id] {
				return
			}
		default:
			if now.Sub(start) >= dur {
				return
			}
		}
		if kind == phaseFloor {
			t0 := time.Now()
			status, _, err := c.cn.do("GET", b.floor, nil)
			t1 := time.Now()
			ph.counts.gets++
			if err != nil || status != 200 {
				ph.counts.getsFailed++
				continue
			}
			ph.counts.getsOK++
			ph.lat = append(ph.lat, int64(t1.Sub(t0)))
			continue
		}
		if c.id == 0 && nextReload < len(reloadAt) && now.Sub(start) >= reloadAt[nextReload] {
			nextReload++
			b.reload(c, traced)
		}
		eid := b.st.at(c.id, c.pos)
		c.pos++
		e := &b.st.entries[eid]
		t0 := time.Now()
		status, body, err := c.cn.do("POST", "/v1/select", e.body)
		t1 := time.Now()
		ph.counts.selects++
		if traced {
			ph.spans = append(ph.spans, span{kind: spanSelect, id: uint64(c.id)<<40 | uint64(n), entry: eid,
				start: t0.UnixNano(), end: t1.UnixNano()})
		}
		if err != nil || status != 200 {
			ph.counts.selectsFailed++
			if len(ph.wrongs) < 5 {
				ph.wrongs = append(ph.wrongs, fmt.Sprintf("select %s: status %d, %v", e.shape, status, err))
			}
			continue
		}
		if !scanAnswer(body, &a) {
			b.wrong(ph, fmt.Sprintf("select %s: unreadable decision %q", e.shape, body))
			continue
		}
		v, slot, why := b.or.check(e, &a)
		if v == verdictWrong {
			b.wrong(ph, why)
			continue
		}
		cfg, ok := b.cfgIndex[string(a.cfg)]
		if !ok {
			b.wrong(ph, fmt.Sprintf("select %s: config %s is not one of the 640", e.shape, a.cfg))
			continue
		}
		ph.counts.selectsOK++
		lat := int64(t1.Sub(t0))
		ph.lat = append(ph.lat, lat)
		if a.cached {
			ph.counts.cached++
		}
		if traced {
			if a.cached {
				ph.hitLat = append(ph.hitLat, lat)
			} else {
				ph.missLat = append(ph.missLat, lat)
			}
			if len(ph.bodies) < 512 {
				ph.bodies = append(ph.bodies, append([]byte(nil), body...))
			}
		}
		switch {
		case v == verdictDegraded:
			ph.counts.degraded++
		case len(b.or.libs[e.dev]) == maxSlots && a.gen > b.baseGen && a.gen-b.baseGen < uint64(len(ph.changed)):
			// A reloaded generation: count answers the swap changed.
			if e.want[slot] != e.want[1-slot] {
				ph.changed[a.gen-b.baseGen]++
			}
		}
		if kind == phaseMeasure && n < qualityWindow {
			ph.quality = append(ph.quality, qualityRec{entry: eid, cfg: cfg})
		}
	}
}

func (b *bench) wrong(ph *phase, why string) {
	ph.counts.selectsFailed++
	ph.counts.wrong++
	if len(ph.wrongs) < 5 {
		ph.wrongs = append(ph.wrongs, why)
	}
}

// reload swaps the artifact file to the other library, registers the
// generation the fleet will stamp, and rolls every replica through the
// router, in line with caller c's selects.
func (b *bench) reload(c *caller, traced bool) {
	ph := &c.ph
	j := b.reloadsDone + 1
	slot := j % maxSlots
	gen := b.baseGen + uint64(j)
	ph.counts.reloads++
	fail := func(why string) {
		ph.counts.reloadsFailed++
		b.reloadErrs = append(b.reloadErrs, why)
	}
	b.reloadsDone = j
	if err := writeFileAtomic(b.artifact, b.artifacts[slot]); err != nil {
		fail(err.Error())
		return
	}
	if err := b.or.setSlot(0, gen, slot); err != nil {
		fail(err.Error())
		return
	}
	t0 := time.Now()
	status, body, err := c.cn.do("POST", "/v1/reload", []byte("{}"))
	t1 := time.Now()
	if traced {
		ph.spans = append(ph.spans, span{kind: spanReload, id: uint64(c.id)<<40 | 1<<39 | uint64(j), entry: -1,
			start: t0.UnixNano(), end: t1.UnixNano()})
	}
	if err != nil || status != 200 {
		fail(fmt.Sprintf("reload %d: status %d, %v: %s", j, status, err, body))
		return
	}
	var rr struct {
		Reloads []struct {
			Replica    string `json:"replica"`
			Generation uint64 `json:"generation"`
			Warmed     int    `json:"warmed"`
			Error      string `json:"error"`
		} `json:"reloads"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		fail(fmt.Sprintf("reload %d: %v", j, err))
		return
	}
	warmed := 0
	for _, r := range rr.Reloads {
		if r.Error != "" || r.Generation != gen {
			fail(fmt.Sprintf("reload %d: replica %s at generation %d (want %d): %s", j, r.Replica, r.Generation, gen, r.Error))
			return
		}
		warmed += r.Warmed
	}
	if len(rr.Reloads) != len(b.replicas) {
		fail(fmt.Sprintf("reload %d rolled %d of %d replicas", j, len(rr.Reloads), len(b.replicas)))
		return
	}
	ph.counts.reloadsOK++
	b.reloadMs = append(b.reloadMs, float64(t1.Sub(t0).Microseconds())/1000)
	b.warmed = append(b.warmed, float64(warmed))
}

// usage is the daemons' CPU ticks and the machine's CPU time at one instant.
type usage struct {
	ticks int64
	host  hostTicks
}

func (b *bench) usage() (usage, error) {
	var u usage
	for _, d := range b.daemons() {
		n, err := d.cpuTicks()
		if err != nil {
			return u, err
		}
		u.ticks += n
	}
	var err error
	u.host, err = readHostTicks()
	return u, err
}

// verifyReloads checks that every reload changed the served config of some
// shape, as observed by the checker.
func (b *bench) verifyReloads(ph *phase) error {
	for j := 1; j <= b.reloadsDone; j++ {
		if ph.changed[j] == 0 {
			return fmt.Errorf("reload %d changed no served config", j)
		}
	}
	return nil
}

// waitIdle waits until every replica's warm pass for its current generation
// has completed, so the phase's counters include all the work it caused.
func (b *bench) waitIdle() error {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	return waitAll(ctx, b.replicas, "/healthz", selectdWarm)
}

// counters is the daemons' Go heap state at one instant, summed.
type counters struct {
	heap heapStats
}

func (b *bench) readCounters(gc bool) (counters, error) {
	var c counters
	for _, d := range b.daemons() {
		hs, err := d.heap(gc)
		if err != nil {
			return c, err
		}
		c.heap.HeapAlloc += hs.HeapAlloc
		c.heap.Mallocs += hs.Mallocs
		c.heap.NumGC += hs.NumGC
	}
	return c, nil
}

func (b *bench) newCallers() ([]*caller, error) {
	cs := make([]*caller, numCallers)
	for i := range cs {
		cn, err := dial(b.target)
		if err != nil {
			return nil, err
		}
		cs[i] = &caller{id: i, cn: cn}
	}
	return cs, nil
}

func closeCallers(cs []*caller) {
	for _, c := range cs {
		c.cn.Close()
	}
}

func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
