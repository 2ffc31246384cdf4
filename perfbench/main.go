// Command perfbench is kernelselect's served-path benchmark. It builds
// nothing itself (run.sh builds selectd and selectrouter from the checkout),
// starts the daemons as child processes with deployment settings only, drives
// one workload as a closed loop of two callers, checks every answer against
// an oracle built from the artifact each daemon serves, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_us": {"value": 41.2, "unit": "us"}, ...}}
//
// Workloads: replica-hot, replica-dynamic, fleet-reload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// roundsPerRun is how many rounds an untraced run sets up and measures.
	roundsPerRun = 8
	// keptRounds is how many of them the end-to-end figures come from: those
	// whose measured phase lost the least CPU time to the hypervisor.
	keptRounds = 5
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in print
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_us", "us"}, {"p99_us", "us"},
	{"cpu_us_per_req", "us"}, {"mem_mb", "MB"}, {"quality_pct", "%"},
}

var perLayer = []metricDef{
	{"dataset.build_s", "s"}, {"core.build_library_s", "s"},
	{"daemon.listen_s", "s"}, {"serve.warm_s", "s"},
	{"serve.cache_hit_share", "ratio"}, {"serve.hit_p50_us", "us"},
	{"serve.miss_p50_us", "us"}, {"serve.coalesced_share", "ratio"},
	{"serve.parse_ns", "ns"}, {"serve.encode_ns", "ns"},
	{"http.floor_us", "us"}, {"core.choose_ns", "ns"},
	{"sim.price_row_first_ns", "ns"}, {"sim.price_row_repeat_ns", "ns"}, {"sim.memo_bytes_per_shape", "bytes"},
	{"cluster.edge_hit_share", "ratio"}, {"cluster.upstream_p50_us", "us"}, {"cluster.upstream_p99_us", "us"},
	{"cluster.shapes_per_upstream", "count"},
	{"cluster.retries", "count"}, {"cluster.hedges", "count"}, {"cluster.fallbacks", "count"},
	{"cluster.reload_ms", "ms"}, {"cluster.warmed_shapes", "count"},
	{"go.allocs_per_req", "count"}, {"go.gc_per_10k_req", "count"},
	{"bench.trace_overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	fs.StringVar(&opts.workload, "workload", "", "replica-hot, replica-dynamic or fleet-reload")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opts.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&opts.binDir, "bin", "", "directory holding the selectd and selectrouter binaries")
	fs.StringVar(&opts.workDir, "work", "", "directory for artifacts and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = *trace == 1
	if opts.binDir == "" || opts.workDir == "" || opts.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -bin, -work and a positive -seconds are required")
		return 2
	}
	return runOptions(opts, stdout, stderr)
}

// runOptions runs one workload, prints the result line, and returns the exit
// code: 1 when any answer was wrong or no result could be produced.
func runOptions(opts options, stdout, stderr io.Writer) int {
	res, err := execute(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and returns its result. A wrong answer yields a
// result with Correct false; an error means no result could be produced.
func execute(opts options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	b, err := newBench(opts, out)
	if err != nil {
		return nil, err
	}
	defer b.teardown()
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(out, "stream: %d distinct requests, %d callers, warm-up %d+%d selects\n",
		len(b.st.entries), numCallers, b.st.warm[0], b.st.warm[1])
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	dur := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		m, err := b.measured(res, dur, roundsPerRun)
		if err != nil {
			return nil, err
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: m.e2e[d.name], Unit: d.unit}
		}
		printMetrics(out, endToEnd, res.Metrics)
		return res, nil
	}
	if err := b.traced(res, dur); err != nil {
		return nil, err
	}
	printMetrics(out, perLayer, res.Metrics)
	return res, nil
}

func printMetrics(out io.Writer, defs []metricDef, ms map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
}

// measuredRun is what an untraced measurement yields. The counters and
// /metrics deltas are those of its last round.
type measuredRun struct {
	e2e        map[string]float64
	ph         *phase
	before     counters
	after      counters
	mem        float64
	listenS    float64
	warmS      float64
	coalesced  float64
	misses     float64
	haveSF     bool
	retries    float64
	hedges     float64
	haveRouter [2]bool
}

// measured runs `rounds` rounds, each a fresh set-up of the workload, a
// warm-up and dur/rounds of measurement. The end-to-end figures come from
// the keptRounds rounds whose measured phase lost the least CPU time to the
// hypervisor, and every time is first scaled to the reference speed by the
// gauge that ran while it was measured. setup_s and mem_mb are medians over
// those rounds. p50_us and p99_us are percentiles of their pooled answers,
// and cpu_us_per_req their CPU time over their answers: a round of two
// seconds sees one to three of the daemon's GC cycles, which move its own
// p99 by tens of percent.
//
// Spreading the measured time over several daemon processes keeps one
// process's luck (its memory layout, where its threads land) out of the
// figures. On a shared virtual machine the hypervisor at times takes a large
// share of the CPU for a minute or more, which inflates set-up time, CPU per
// select and above all p99; keeping the least stolen rounds keeps such a
// burst out of the figures when it spares part of the run. The run always
// reports; it prints every round's steal share and times as measured.
func (b *bench) measured(res *result, dur time.Duration, rounds int) (*measuredRun, error) {
	m := &measuredRun{e2e: map[string]float64{}}
	var all []round
	var quality []qualityRec
	for r := 0; r < rounds; r++ {
		su, err := b.setup(false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		err = b.measureRound(res, m, dur/time.Duration(rounds))
		b.teardown()
		if err != nil {
			return nil, err
		}
		if m.ph.stat.n < 1000 {
			return nil, fmt.Errorf("round %d answered %d selects; p99 needs at least 1000", r+1, m.ph.stat.n)
		}
		all = append(all, round{su, m.mem, m.ph.stat})
		if r == 0 {
			quality = m.ph.quality
		}
	}
	var steals, gauges, setups, setupGauges, p50s, p99s, cpus []float64
	for _, r := range all {
		steals, gauges = append(steals, r.stat.steal), append(gauges, r.stat.gauge/1e3)
		setups, setupGauges = append(setups, r.setup.total), append(setupGauges, r.setup.gauge/1e3)
		p50s, p99s, cpus = append(p50s, r.stat.p50/1e3), append(p99s, r.stat.p99/1e3), append(cpus, r.stat.cpuPerReq/1e3)
	}
	fmt.Fprintf(b.out, "rounds, as measured: %d; steal share %v; gauge us %v; set-up s %v (gauge us %v); p50 us %v; p99 us %v; cpu us/req %v\n",
		rounds, roundAll(steals), roundAll(gauges), roundAll(setups), roundAll(setupGauges), roundAll(p50s), roundAll(p99s), roundAll(cpus))

	kept := leastStolen(all, keptRounds)
	var listens, warms, mems []float64
	var lat []int64
	var cpuNs float64
	setups = nil
	for _, r := range kept {
		listens, warms = append(listens, r.setup.listen), append(warms, r.setup.warm)
		setups = append(setups, atRefSpeed(r.setup.total, r.setup.gauge))
		mems = append(mems, r.mem)
		for _, l := range r.stat.lat {
			lat = append(lat, int64(atRefSpeed(float64(l), r.stat.gauge)))
		}
		cpuNs += atRefSpeed(r.stat.cpuPerReq, r.stat.gauge) * float64(r.stat.n)
	}
	lat = sortedCopy(lat)
	answered := len(lat)
	m.listenS, m.warmS = median(listens), median(warms)
	m.e2e["setup_s"] = median(setups)
	m.e2e["mem_mb"] = median(mems)
	m.e2e["p50_us"] = percentile(lat, 0.5) / 1e3
	m.e2e["p99_us"] = percentile(lat, 0.99) / 1e3
	m.e2e["cpu_us_per_req"] = cpuNs / float64(answered) / 1e3
	fmt.Fprintf(b.out, "measure: figures from the %d least stolen rounds, %d answered selects; times scaled to a gauge of %g us\n",
		len(kept), answered, gaugeRef/1e3)
	if b.opts.trace {
		// A traced run's untraced half only supplies comparison figures.
		return m, nil
	}
	if len(quality) < numCallers*qualityWindow {
		return nil, fmt.Errorf("quality window incomplete: %d of %d selects", len(quality), numCallers*qualityWindow)
	}
	m.e2e["quality_pct"] = qualityPct(b.st, quality)
	return m, nil
}

// round is one set-up and measured phase of an untraced run.
type round struct {
	setup setupTimes
	mem   float64 // MB
	stat  roundStat
}

// leastStolen returns the k rounds whose measured phase lost the smallest
// share of the machine's CPU time to the hypervisor; ties keep round order.
func leastStolen(rounds []round, k int) []round {
	s := append([]round(nil), rounds...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].stat.steal < s[j].stat.steal })
	return s[:min(k, len(s))]
}

// measureRound measures one set-up: oracle check, warm-up, the measured
// phase, then the daemons' counters once they are idle.
func (b *bench) measureRound(res *result, m *measuredRun, dur time.Duration) error {
	if err := b.prepare(); err != nil {
		return err
	}
	callers, err := b.newCallers()
	if err != nil {
		return err
	}
	defer closeCallers(callers)
	if err := b.account(res, b.runPhase("warmup", phaseWarmup, callers, 0, false)); err != nil {
		return err
	}
	metricsBefore, err := b.scrapeMetrics()
	if err != nil {
		return err
	}
	if m.before, err = b.readCounters(true); err != nil {
		return err
	}
	ph := b.runPhase("measure", phaseMeasure, callers, dur, false)
	m.ph = ph
	if err := b.waitIdle(); err != nil {
		return err
	}
	if m.after, err = b.readCounters(false); err != nil {
		return err
	}
	mem, err := b.readCounters(true)
	if err != nil {
		return err
	}
	m.mem = float64(mem.heap.HeapAlloc) / 1e6
	metricsAfter, err := b.scrapeMetrics()
	if err != nil {
		return err
	}
	if err := b.account(res, ph); err != nil {
		return err
	}
	if err := b.verifyReloads(ph); err != nil {
		return err
	}
	if ph.err != nil {
		return fmt.Errorf("reading CPU time over the measured phase: %w", ph.err)
	}
	d0, d1 := metricsDelta(metricsBefore, metricsAfter, "selectd_singleflight_coalesced_total")
	e0, e1 := metricsDelta(metricsBefore, metricsAfter, "selectd_cache_misses_total")
	m.coalesced, m.misses, m.haveSF = d1-d0, e1-e0, d0 >= 0 && e0 >= 0
	r0, r1 := metricsDelta(metricsBefore, metricsAfter, "router_retries_total")
	h0, h1 := metricsDelta(metricsBefore, metricsAfter, "router_hedges_total")
	m.retries, m.hedges, m.haveRouter = r1-r0, h1-h0, [2]bool{r0 >= 0, h0 >= 0}
	if b.opts.workload == "fleet-reload" {
		b.reportReloads(ph)
	}
	return nil
}

// scrapeMetrics fetches every daemon's /metrics body.
func (b *bench) scrapeMetrics() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, d := range b.daemons() {
		body, err := httpGet("http://" + d.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		out[d.name] = body
	}
	return out, nil
}

// metricsDelta sums a series over all daemons before and after; -1 marks a
// series no daemon exports.
func metricsDelta(before, after map[string][]byte, series string) (float64, float64) {
	var s0, s1 float64
	found := false
	for name, body := range before {
		v0, ok0 := scrapeCounter(body, series)
		v1, ok1 := scrapeCounter(after[name], series)
		if ok0 && ok1 {
			s0, s1, found = s0+v0, s1+v1, true
		}
	}
	if !found {
		return -1, -1
	}
	return s0, s1
}

func (b *bench) reportReloads(ph *phase) {
	hot, dyn, nHot, nDyn := 0, 0, 0, 0
	for _, e := range b.st.entries {
		differ := e.want[0] != e.want[1]
		if e.hot {
			nHot++
			if differ {
				hot++
			}
		} else {
			nDyn++
			if differ {
				dyn++
			}
		}
	}
	fmt.Fprintf(b.out, "reload artifacts disagree on %d/%d dataset shapes and %d/%d dynamic shapes\n", hot, nHot, dyn, nDyn)
	fmt.Fprintf(b.out, "reloads: %d, wall ms %v, warmed shapes %v, changed answers per reload %v\n",
		b.reloadsDone, roundAll(b.reloadMs), b.warmed, ph.changed[1:b.reloadsDone+1])
}

// account folds a phase into the result, prints its counts, and turns wrong
// answers into an incorrect result.
func (b *bench) account(res *result, ph *phase) error {
	c := ph.counts
	res.Attempted += c.selects + c.reloads + c.gets
	res.Failed += c.selectsFailed + c.reloadsFailed + c.getsFailed
	fmt.Fprintf(b.out, "phase %-8s selects sent %d ok %d failed %d (wrong %d, degraded %d, cached %d); reloads sent %d ok %d failed %d; gets sent %d ok %d failed %d\n",
		ph.name, c.selects, c.selectsOK, c.selectsFailed, c.wrong, c.degraded, c.cached,
		c.reloads, c.reloadsOK, c.reloadsFailed, c.gets, c.getsOK, c.getsFailed)
	for _, w := range ph.wrongs {
		fmt.Fprintf(b.out, "  failure: %s\n", w)
	}
	for _, e := range b.reloadErrs {
		fmt.Fprintf(b.out, "  reload failure: %s\n", e)
	}
	b.reloadErrs = nil
	if c.wrong > 0 {
		res.Correct = false
	}
	if c.selects > 0 && c.selectsFailed == c.selects {
		return fmt.Errorf("phase %s: every select failed", ph.name)
	}
	return nil
}

// traced runs the same seed twice: an untraced half for the comparison
// figures and a traced half with spans (and, on fleet-reload, the recording
// proxy between router and replicas), then probes the layers in-process.
func (b *bench) traced(res *result, dur time.Duration) error {
	half := max(dur/2, time.Second)
	lm := map[string]float64{}
	var absent []string
	p := &probes{st: b.st, or: b.or}

	lm["dataset.build_s"], lm["core.build_library_s"] = p.build()

	plain, err := b.measured(res, half, 1)
	if err != nil {
		return err
	}
	done := float64(plain.ph.counts.selectsOK)
	lm["daemon.listen_s"], lm["serve.warm_s"] = plain.listenS, plain.warmS
	lm["go.allocs_per_req"] = float64(plain.after.heap.Mallocs-plain.before.heap.Mallocs) / done
	lm["go.gc_per_10k_req"] = float64(plain.after.heap.NumGC-plain.before.heap.NumGC) * 1e4 / done
	if plain.haveSF && plain.misses > 0 {
		lm["serve.coalesced_share"] = plain.coalesced / plain.misses
	} else {
		absent = append(absent, "serve.coalesced_share")
	}
	lm["cluster.reload_ms"] = median(b.reloadMs)
	lm["cluster.warmed_shapes"] = median(b.warmed)

	// Traced half.
	b.rec = &recorder{}
	if _, err := b.setup(true); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	if err := b.prepare(); err != nil {
		return err
	}
	callers, err := b.newCallers()
	if err != nil {
		return err
	}
	defer closeCallers(callers)
	if err := b.account(res, b.runPhase("warmup", phaseWarmup, callers, 0, false)); err != nil {
		return err
	}
	b.rec.active.Store(true)
	ph := b.runPhase("traced", phaseMeasure, callers, half, true)
	b.rec.active.Store(false)
	if err := b.account(res, ph); err != nil {
		return err
	}
	floor := b.runPhase("floor", phaseFloor, callers, max(half/5, 500*time.Millisecond), false)
	if err := b.account(res, floor); err != nil {
		return err
	}
	closeCallers(callers)
	b.teardown()

	answered := float64(ph.counts.selectsOK)
	lat := sortedCopy(ph.lat)
	tracedP50 := percentile(lat, 0.5) / 1e3
	untracedP50 := plain.ph.stat.p50 / 1e3 // as measured, like the traced p50
	lm["bench.trace_overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100
	lm["serve.cache_hit_share"] = float64(ph.counts.cached) / answered
	lm["serve.hit_p50_us"] = percentile(sortedCopy(ph.hitLat), 0.5) / 1e3
	lm["serve.miss_p50_us"] = percentile(sortedCopy(ph.missLat), 0.5) / 1e3
	if len(ph.hitLat) == 0 {
		absent = append(absent, "serve.hit_p50_us")
	}
	if len(ph.missLat) == 0 {
		absent = append(absent, "serve.miss_p50_us")
	}
	lm["http.floor_us"] = percentile(sortedCopy(floor.lat), 0.5) / 1e3

	lm["serve.parse_ns"] = p.parse()
	lm["serve.encode_ns"] = p.encode(ph.bodies)
	lm["core.choose_ns"] = p.choose()
	lm["sim.price_row_first_ns"], lm["sim.price_row_repeat_ns"], lm["sim.memo_bytes_per_shape"] = p.pricing()

	spans := append(ph.spans, p.spans...)
	if b.opts.workload == "fleet-reload" {
		rep, parents, self, waits := attribute(b.st, ph.spans, b.rec.calls)
		up := sortedCopy(rep.lat)
		lm["cluster.edge_hit_share"] = math.Max(0, 1-float64(rep.shapes)/float64(ph.counts.selects))
		lm["cluster.upstream_p50_us"] = percentile(up, 0.5) / 1e3
		lm["cluster.upstream_p99_us"] = percentile(up, 0.99) / 1e3
		if rep.calls > 0 {
			lm["cluster.shapes_per_upstream"] = float64(rep.shapes) / float64(rep.calls)
		}
		lm["cluster.fallbacks"] = float64(plain.ph.counts.degraded)
		if plain.haveRouter[0] {
			lm["cluster.retries"] = plain.retries
		} else {
			absent = append(absent, "cluster.retries")
		}
		if plain.haveRouter[1] {
			lm["cluster.hedges"] = plain.hedges
		} else {
			absent = append(absent, "cluster.hedges")
		}
		for i, c := range b.rec.calls {
			spans = append(spans, span{kind: spanUpstream, id: 1<<62 | uint64(i), parent: parents[i], entry: -1, start: c.start, end: c.end})
		}
		selfS, waitS := sortedCopy(self), sortedCopy(waits)
		fmt.Fprintf(b.out, "layer client.select   count %d self p50 %.1fus\n", len(selfS), percentile(selfS, 0.5)/1e3)
		fmt.Fprintf(b.out, "layer router.upstream calls %d (attributed %d shapes), shapes %d, p50 %.1fus, p99 %.1fus; peer-warm batches %d\n",
			rep.calls, rep.matched, rep.shapes, lm["cluster.upstream_p50_us"], lm["cluster.upstream_p99_us"], rep.warmBatches)
		fmt.Fprintf(b.out, "wait  router outside upstream (selects that went upstream) p50 %.1fus\n", percentile(waitS, 0.5)/1e3)
	} else {
		for _, n := range []string{"cluster.edge_hit_share", "cluster.upstream_p50_us", "cluster.upstream_p99_us",
			"cluster.shapes_per_upstream", "cluster.retries", "cluster.hedges", "cluster.fallbacks",
			"cluster.reload_ms", "cluster.warmed_shapes"} {
			absent = append(absent, n)
		}
		fmt.Fprintf(b.out, "layer client.select   count %d self p50 %.1fus\n", len(lat), tracedP50)
	}
	fmt.Fprintf(b.out, "layer client.reload   count %d wall p50 %.2fms\n", len(b.reloadMs), median(b.reloadMs))
	for _, s := range p.spans {
		fmt.Fprintf(b.out, "layer %-28s %.3fms\n", s.name, float64(s.end-s.start)/1e6)
	}
	b.reconcile(lm, tracedP50)
	sort.Strings(absent)
	if len(absent) > 0 {
		fmt.Fprintf(b.out, "absent (reported as 0): %v\n", absent)
	}
	path := filepath.Join(b.opts.workDir, "spans-"+b.opts.workload+".tsv")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(spans), path)
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: lm[d.name], Unit: d.unit}
	}
	return nil
}

// reconcile prints the traced client p50 against the sum of the layers
// measured on the way, and the residual neither accounts for.
func (b *bench) reconcile(lm map[string]float64, p50 float64) {
	miss := 1 - lm["serve.cache_hit_share"]
	wire := (lm["serve.parse_ns"] + lm["serve.encode_ns"]) / 1e3
	compute := miss * (lm["core.choose_ns"] + lm["sim.price_row_repeat_ns"]) / 1e3
	sum := lm["http.floor_us"] + wire + compute
	extra := ""
	if b.opts.workload == "fleet-reload" {
		up := (1 - lm["cluster.edge_hit_share"]) * lm["cluster.upstream_p50_us"]
		sum = lm["http.floor_us"] + wire + up
		extra = fmt.Sprintf(" + upstream share×p50 %.2f", up)
		compute = 0
	}
	fmt.Fprintf(b.out, "reconcile: client p50 %.2fus = http floor %.2f + wire %.2f + miss share×(choose+price) %.2f%s = %.2f, residual %.2fus\n",
		p50, lm["http.floor_us"], wire, compute, extra, sum, p50-sum)
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}
