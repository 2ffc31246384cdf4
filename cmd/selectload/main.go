// Command selectload is a fixed-rate load generator for selectd: it replays
// the paper's dataset shape mix against a running daemon (or an in-process
// server with -inprocess) at a target QPS and reports per-device latency
// quantiles and resilience rates — how much traffic was answered full
// service, degraded (a cluster router's replica_down fallback), shed 429, or
// errored.
//
// The shape stream is deterministic in -seed, so two runs against different
// server builds see the same request sequence and their reports compare
// directly. Dispatch is open-loop (wrk2-style): every request has an
// absolute deadline start + i/qps, and a worker that picks a job up late
// records the lateness as queue delay rather than letting a slow server
// stretch the schedule. Closed-loop generators silently degrade into
// measuring their own backpressure — the achieved rate drops and the
// latencies look fine; open-loop keeps offered load honest and the report's
// limiter field says whether any shortfall was the server or the generator.
//
// Usage:
//
//	selectload -url http://localhost:8080 -qps 500 -duration 30s [-devices amd-r9-nano,integrated-gen9]
//	selectload -inprocess -qps 500 -duration 10s -json BENCH_serve.json
//	selectload -inprocess -qps 500 -duration 10s -baseline BENCH_serve.json    # regression gate
//	selectload -inprocess -ramp -ramp-start 1000 -ramp-step 1000 -fig figures/fig6-saturation.svg
//	selectload -inprocess -ramp -ramp-start 2000 -ramp-step 2000 -ramp-max 8000 -require-knee 7000
//	selectload -url http://router:8090 -warm -qps 1000 -duration 10s
//
// The -json report is the serving-path benchmark baseline (`make bench-serve`
// writes BENCH_serve.json): track p50/p95/p99 and the degraded/shed rates
// across changes to the serving runtime. With -baseline the run compares
// itself against a stored report and exits non-zero when achieved QPS or any
// device's p99 regresses beyond -tolerance, so `make check` can gate on it.
// With -ramp the generator steps the offered rate until the server saturates
// (shed+degraded past -knee-shed, or achieved QPS falling under -knee-qps of
// offered), reports the knee, and renders the latency/shed trade-off figure.
// -require-knee N turns the ramp into a CI gate: it fails unless the highest
// step that did not saturate (the last step when no knee is found) achieved
// at least 95% of N.
//
// The in-process server is the one selectd ships: two device backends with
// default options. Every select there is the same compiled-selector walk, so
// there is nothing to warm. -warm exists for a -url that fronts a cache — a
// cluster router's edge cache: before offering load the client sends every
// (device, shape) the run can draw once, retrying each until it answers full
// quality, so the run measures the steady state of a warm edge.
//
// Closed-loop reporting: after a fixed-rate run the generator scrapes the
// server's /metrics page and, when the server samples decisions for regret
// (selectd -regret-sample, or -inprocess -regret-sample here), appends each
// device's sampled-regret quantiles and drift score to the report and the
// -json output. -max-regret R turns that into a CI gate: the run fails when
// any device's mean sampled regret exceeds R. -shift replays a transformer
// shape mix disjoint from the training mix instead of the dataset mix, so a
// closed-loop server sees genuine distribution drift — drive it at a daemon
// running with -retrain to exercise the drift → retrain → promote path end
// to end:
//
//	selectload -inprocess -regret-sample 1 -qps 300 -duration 3s -max-regret 0.05
//	selectload -url http://localhost:8080 -shift -qps 200 -duration 30s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/plot"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
	"kernelselect/internal/xrand"
)

type config struct {
	url      string
	qps      int
	duration time.Duration
	devices  []string // device names to spread traffic over; empty = default route
	seed     uint64
	workers  int
	shapes   int  // distinct shapes sampled from the dataset mix; 0 = all
	shift    bool // replay the shifted transformer mix instead of the dataset mix
}

// deviceReport aggregates one device's outcomes. Rates are fractions of the
// device's request count. Queue delay is how late the open-loop schedule
// fired each request (all workers busy = the server, not the generator, is
// the bottleneck); it is reported separately and never mixed into the
// service latency quantiles.
type deviceReport struct {
	Device        string  `json:"device"`
	Requests      int     `json:"requests"`
	P50Micros     int64   `json:"p50_us"`
	P95Micros     int64   `json:"p95_us"`
	P99Micros     int64   `json:"p99_us"`
	QueueP99Micro int64   `json:"queue_p99_us"`
	DegradedRate  float64 `json:"degraded_rate"`
	ShedRate      float64 `json:"shed_rate"`
	Errors        int     `json:"errors"`
}

type report struct {
	RequestedQPS int             `json:"requested_qps"`
	AchievedQPS  float64         `json:"achieved_qps"`
	Limiter      string          `json:"limiter"` // none | server | generator
	Duration     string          `json:"duration"`
	Seed         uint64          `json:"seed"`
	Devices      []deviceReport  `json:"devices"`
	Regret       []regretSummary `json:"sampled_regret,omitempty"`
}

// sample is one request's outcome, recorded by device.
type sample struct {
	device   string
	latency  time.Duration
	queue    time.Duration // lateness vs. the open-loop schedule
	degraded bool
	shed     bool
	err      bool
}

// drawShape deterministically picks the i-th request's shape from the mix.
func drawShape(seed uint64, i int, shapes []gemm.Shape) gemm.Shape {
	return shapes[xrand.Hash64(seed, 0x10ad, uint64(i))%uint64(len(shapes))]
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("selectload: ")

	url := flag.String("url", "http://localhost:8080", "selectd base URL")
	qps := flag.Int("qps", 200, "target request rate")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	devicesFlag := flag.String("devices", "", "comma-separated device names to spread traffic over (empty = server default route)")
	seed := flag.Uint64("seed", 42, "shape-stream seed")
	workers := flag.Int("workers", 32, "concurrent request workers")
	shapes := flag.Int("shapes", 0, "distinct shapes drawn from the dataset mix (0 = all)")
	shift := flag.Bool("shift", false, "replay a shifted transformer shape mix instead of the dataset mix (drives distribution drift on a closed-loop server)")
	jsonPath := flag.String("json", "", "also write the report as JSON to this path")
	inprocess := flag.Bool("inprocess", false, "benchmark an in-process server instead of -url")
	regretSample := flag.Float64("regret-sample", 0, "closed-loop regret sampling fraction on the -inprocess server (0 disables)")
	maxRegret := flag.Float64("max-regret", 0, "fail when any device's mean sampled regret exceeds this (0 = no gate)")
	warm := flag.Bool("warm", false, "prime the -url router's edge cache with every (device, shape) the run can draw before offering load")
	baseline := flag.String("baseline", "", "compare against a stored report; exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression vs -baseline (QPS and p99)")
	p99Slack := flag.Duration("p99-slack", 0, "absolute grace on the -baseline p99 comparison: a rise fails only past both the tolerance ceiling and baseline+slack")
	ramp := flag.Bool("ramp", false, "step the offered QPS until the server saturates and report the knee")
	rampStart := flag.Int("ramp-start", 250, "first ramp step's offered QPS")
	rampStep := flag.Int("ramp-step", 250, "offered QPS increment per ramp step")
	rampMax := flag.Int("ramp-max", 4000, "offered QPS ceiling for the ramp")
	stepDuration := flag.Duration("step-duration", 3*time.Second, "load duration per ramp step")
	kneeShed := flag.Float64("knee-shed", 0.01, "shed+degraded rate that marks the saturation knee")
	kneeQPS := flag.Float64("knee-qps", 0.95, "achieved/offered ratio below which the knee is declared")
	fig := flag.String("fig", "", "write the ramp's latency/shed trade-off figure (SVG) to this path")
	requireKnee := flag.Int("require-knee", 0, "fail unless the ramp's saturation knee is at or above this QPS (0 = no gate)")
	scaleout := flag.Bool("scaleout", false, "replica-kill timeline and warmed edge-cache phase of an in-process sharded fleet behind the cluster router (uses -fig/-json for fig7 outputs)")
	scaleReplicas := flag.Int("scaleout-replicas", 3, "fleet size for the -scaleout runs")
	scaleQPS := flag.Int("scaleout-qps", 450, "offered QPS of the replica-kill timeline")
	scaleDuration := flag.Duration("scaleout-duration", 3*time.Second, "measurement window per warmed-phase step")
	scaleKill := flag.Duration("scaleout-kill", 6*time.Second, "length of the replica-kill timeline run (0 skips it)")
	scaleWarmedQPS := flag.Int("scaleout-warmed-qps", 1600, "top offered QPS for the warmed fast-path phase (router edge cache on); 0 skips the phase")
	scaleWarmedGate := flag.Float64("scaleout-warmed-gate", 0, "fail unless the warmed fleet's full-service QPS at the top offered step reaches this floor (0 = no gate)")
	scaleWarmedP99 := flag.Duration("scaleout-warmed-p99", time.Millisecond, "p99 ceiling at the warmed phase's top offered step, enforced with -scaleout-warmed-gate (0 = no ceiling)")
	flag.Parse()

	cfg := config{
		url:      *url,
		qps:      *qps,
		duration: *duration,
		seed:     *seed,
		workers:  *workers,
		shapes:   *shapes,
		shift:    *shift,
	}
	for _, d := range strings.Split(*devicesFlag, ",") {
		if d = strings.TrimSpace(d); d != "" {
			cfg.devices = append(cfg.devices, d)
		}
	}

	if *scaleout {
		// The runs build their own in-process fleets; -url, -inprocess, and
		// the ramp flags do not apply.
		err := runScaleout(scaleoutConfig{
			replicas: *scaleReplicas,
			qps:      *scaleQPS,
			duration: *scaleDuration,
			killRun:  *scaleKill,
			seed:     cfg.seed,
			workers:  cfg.workers,

			warmedQPS:  *scaleWarmedQPS,
			warmedGate: *scaleWarmedGate,
			warmedP99:  *scaleWarmedP99,
		}, *jsonPath, *fig)
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if *regretSample > 0 && !*inprocess {
		log.Fatal("-regret-sample requires -inprocess (a remote daemon samples via its own -regret-sample flag)")
	}
	if *warm && *inprocess {
		log.Fatal("-warm primes a router's edge cache through -url; the -inprocess server has no cache to prime")
	}
	if *inprocess {
		ts, names, err := inprocessServer(*regretSample)
		if err != nil {
			log.Fatal(err)
		}
		defer ts.Close()
		cfg.url = ts.URL
		if len(cfg.devices) == 0 {
			cfg.devices = names
		}
	}
	if *warm {
		shapes := cfg.mix()
		if err := warmFastPath(cfg.url, cfg.devices, shapes); err != nil {
			log.Fatal(err)
		}
		log.Printf("edge cache primed: %d shapes on %d device route(s)", len(shapes), max(len(cfg.devices), 1))
	}

	if *ramp {
		rr, err := runRamp(cfg, rampConfig{
			start:    *rampStart,
			step:     *rampStep,
			max:      *rampMax,
			duration: *stepDuration,
			kneeShed: *kneeShed,
			kneeQPS:  *kneeQPS,
		})
		if err != nil {
			log.Fatal(err)
		}
		printRamp(os.Stdout, rr)
		if *jsonPath != "" {
			writeJSONFile(*jsonPath, rr)
		}
		if *fig != "" {
			svg, err := rampFigure(rr)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*fig, []byte(svg), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", *fig)
		}
		if *requireKnee > 0 && !gateKnee(os.Stdout, rr, *requireKnee) {
			os.Exit(1)
		}
		return
	}

	rep, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printReport(os.Stdout, rep)

	// Regret reporting is opportunistic: any server exporting sampled-regret
	// series gets its quantiles folded into the report. Only the -max-regret
	// gate treats a missing or unreadable page as a failure.
	if sums, err := scrapeRegret(cfg.url, 5*time.Second); err == nil && len(sums) > 0 {
		rep.Regret = sums
		printRegret(os.Stdout, sums)
	} else if *maxRegret > 0 {
		log.Fatalf("regret gate: no sampled-regret series at %s/metrics (error: %v)", cfg.url, err)
	}

	if *jsonPath != "" {
		writeJSONFile(*jsonPath, rep)
	}
	if *maxRegret > 0 && !gateRegret(os.Stdout, rep.Regret, *maxRegret) {
		os.Exit(1)
	}
	if *baseline != "" {
		ok, err := compareBaseline(os.Stdout, *baseline, rep, *tolerance, *p99Slack)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func writeJSONFile(path string, v any) {
	raw, _ := json.MarshalIndent(v, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// inprocessServer builds a two-device serving stack (R9 Nano + Gen9, each
// trained in-process over the dataset shape mix) with selectd's default
// options behind httptest, for self-contained serving-path benchmarks.
// regretSample > 0 turns on the closed loop: that fraction of decisions is
// re-priced off-path against the server's own config slice and exported as
// selectd_regret, and a fast maintenance loop keeps the drift gauge live so
// the post-run scrape has settled numbers to report.
func inprocessServer(regretSample float64) (*httptest.Server, []string, error) {
	allShapes, _ := workload.DatasetShapes()
	configs := gemm.AllConfigs()[:160]
	// Latency benchmarks train on a 24-shape slice (the training cost is not
	// what they measure); the closed-loop regret gate instead trains on the
	// full served mix, so the sampled regret reflects how well a properly
	// trained selector compresses the mix, not how a deliberately starved one
	// extrapolates.
	trainShapes := allShapes[:24]
	if regretSample > 0 {
		trainShapes = allShapes
	}
	var backends []serve.Backend
	var names []string
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		ds := dataset.Build(model, trainShapes, configs)
		lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 8, 42)
		backends = append(backends, serve.Backend{Device: spec.Name, Lib: lib, Model: model})
		names = append(names, spec.Name)
	}
	opts := serve.Options{}
	if regretSample > 0 {
		opts.RegretSample = regretSample
		opts.RegretUniverse = configs
		opts.MaintainInterval = 50 * time.Millisecond
	}
	srv, err := serve.NewMulti(backends, opts)
	if err != nil {
		return nil, nil, err
	}
	return httptest.NewServer(srv.Handler()), names, nil
}

// mix is the shape set a run draws from: the dataset mix, or with shift the
// transformer mix, cut to the first cfg.shapes shapes when that is set.
func (cfg config) mix() []gemm.Shape {
	shapes, _ := workload.DatasetShapes()
	if cfg.shift {
		// The transformer mix is disjoint from the dataset mix the served
		// libraries train on, so replaying it (-shift) raises the server's
		// drift score and, with retraining enabled, trips the shadow retrain
		// path under realistic traffic rather than a synthetic test.
		shapes = workload.TransformerMix()
	}
	if cfg.shapes > 0 && cfg.shapes < len(shapes) {
		shapes = shapes[:cfg.shapes]
	}
	return shapes
}

// run drives the load and aggregates the report. It is the testable core:
// main only parses flags and prints.
func run(cfg config) (report, error) {
	if cfg.qps < 1 {
		return report{}, fmt.Errorf("qps %d must be >= 1", cfg.qps)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	shapes := cfg.mix()
	total := int(float64(cfg.qps) * cfg.duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := cfg.duration / time.Duration(total)
	if interval <= 0 {
		interval = time.Nanosecond
	}

	type decision struct {
		Degraded bool `json:"degraded"`
	}
	client := &http.Client{Timeout: 30 * time.Second, Transport: loadTransport(cfg.workers)}
	// The jobs channel holds the whole schedule: dispatch can never block on
	// a slow server (the open-loop property). Workers enforce each job's
	// absolute deadline themselves and record any lateness as queue delay.
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, total)
	samples := make(chan sample, total)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if d := time.Until(j.due); d > 0 {
					time.Sleep(d)
				}
				shape := drawShape(cfg.seed, j.i, shapes)
				dev := ""
				if len(cfg.devices) > 0 {
					dev = cfg.devices[j.i%len(cfg.devices)]
				}
				raw, _ := json.Marshal(map[string]any{
					"m": shape.M, "k": shape.K, "n": shape.N, "device": dev,
				})
				start := time.Now()
				smp := sample{device: dev, queue: start.Sub(j.due)}
				if smp.queue < 0 {
					smp.queue = 0
				}
				resp, err := client.Post(cfg.url+"/v1/select", "application/json", bytes.NewReader(raw))
				smp.latency = time.Since(start)
				if err != nil {
					smp.err = true
					samples <- smp
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var d decision
					if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
						smp.err = true
					} else {
						smp.degraded = d.Degraded
					}
				case http.StatusTooManyRequests:
					smp.shed = true
				default:
					smp.err = true
				}
				resp.Body.Close()
				samples <- smp
			}
		}()
	}

	start := time.Now()
	for i := 0; i < total; i++ {
		jobs <- job{i: i, due: start.Add(time.Duration(i) * interval)}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	close(samples)

	// Aggregate per device.
	byDevice := map[string]*struct {
		lats, queues         []time.Duration
		degraded, shed, errs int
	}{}
	order := []string{}
	var allQueues []time.Duration
	for smp := range samples {
		agg, ok := byDevice[smp.device]
		if !ok {
			agg = &struct {
				lats, queues         []time.Duration
				degraded, shed, errs int
			}{}
			byDevice[smp.device] = agg
			order = append(order, smp.device)
		}
		agg.lats = append(agg.lats, smp.latency)
		agg.queues = append(agg.queues, smp.queue)
		allQueues = append(allQueues, smp.queue)
		if smp.degraded {
			agg.degraded++
		}
		if smp.shed {
			agg.shed++
		}
		if smp.err {
			agg.errs++
		}
	}
	sort.Strings(order)

	rep := report{
		RequestedQPS: cfg.qps,
		AchievedQPS:  float64(total) / elapsed.Seconds(),
		Duration:     elapsed.Round(time.Millisecond).String(),
		Seed:         cfg.seed,
	}
	rep.Limiter = attributeLimiter(cfg.qps, rep.AchievedQPS, interval, percentile(allQueues, 99))
	for _, dev := range order {
		agg := byDevice[dev]
		n := len(agg.lats)
		name := dev
		if name == "" {
			name = "(default)"
		}
		rep.Devices = append(rep.Devices, deviceReport{
			Device:        name,
			Requests:      n,
			P50Micros:     percentile(agg.lats, 50).Microseconds(),
			P95Micros:     percentile(agg.lats, 95).Microseconds(),
			P99Micros:     percentile(agg.lats, 99).Microseconds(),
			QueueP99Micro: percentile(agg.queues, 99).Microseconds(),
			DegradedRate:  rate(agg.degraded, n),
			ShedRate:      rate(agg.shed, n),
			Errors:        agg.errs,
		})
	}
	return rep, nil
}

// loadTransport sizes the generator's idle connection pool to the worker
// count: the stock two idle connections per host would re-dial for nearly
// every request once workers climb into the hundreds, and the churn would be
// billed to the server as latency.
func loadTransport(workers int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = workers * 2
	tr.MaxIdleConnsPerHost = workers
	return tr
}

// attributeLimiter names what capped the run when the achieved rate fell
// short of the request: queue delays well past the dispatch interval mean
// every worker was occupied waiting on the server; an on-schedule queue with
// a shortfall means the generator itself (scheduling overhead, too few CPUs)
// could not hold the rate.
func attributeLimiter(requested int, achieved float64, interval, queueP99 time.Duration) string {
	if achieved >= 0.99*float64(requested) {
		return "none"
	}
	if queueP99 > 4*interval {
		return "server"
	}
	return "generator"
}

func rate(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// percentile returns the p-th percentile (nearest-rank) of the samples.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func printReport(w *os.File, rep report) {
	fmt.Fprintf(w, "qps %d requested, %.1f achieved over %s (seed %d, limiter %s)\n",
		rep.RequestedQPS, rep.AchievedQPS, rep.Duration, rep.Seed, rep.Limiter)
	fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s %9s %6s %6s\n",
		"device", "requests", "p50(us)", "p95(us)", "p99(us)", "queue99", "degraded%", "shed%", "errors")
	for _, d := range rep.Devices {
		fmt.Fprintf(w, "%-22s %8d %10d %10d %10d %10d %8.2f%% %5.2f%% %6d\n",
			d.Device, d.Requests, d.P50Micros, d.P95Micros, d.P99Micros, d.QueueP99Micro,
			d.DegradedRate*100, d.ShedRate*100, d.Errors)
	}
}

// ---------------------------------------------------------------------------
// Baseline regression gate
// ---------------------------------------------------------------------------

// compareBaseline diffs the fresh report against a stored one and reports
// whether it passes: achieved QPS may not fall more than tol below the
// baseline, and no device's p99 may rise more than tol above it. Devices
// present only on one side are ignored (topology changes are not latency
// regressions). slack is an absolute grace on the p99 comparison: once the
// baseline p99 is a few hundred microseconds, a relative
// tolerance alone trips on pure scheduler jitter (shared boxes swing
// sub-millisecond quantiles by an order of magnitude run to run), so a rise
// only fails when it clears both the relative ceiling and baseline+slack.
func compareBaseline(w *os.File, path string, rep report, tol float64, slack time.Duration) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	pass := true
	fmt.Fprintf(w, "baseline %s (tolerance %.0f%%):\n", path, tol*100)
	if floor := base.AchievedQPS * (1 - tol); rep.AchievedQPS < floor {
		pass = false
		fmt.Fprintf(w, "  FAIL achieved qps %.1f < %.1f (baseline %.1f)\n", rep.AchievedQPS, floor, base.AchievedQPS)
	} else {
		fmt.Fprintf(w, "  ok   achieved qps %.1f vs baseline %.1f\n", rep.AchievedQPS, base.AchievedQPS)
	}
	baseByDev := map[string]deviceReport{}
	for _, d := range base.Devices {
		baseByDev[d.Device] = d
	}
	for _, d := range rep.Devices {
		b, ok := baseByDev[d.Device]
		if !ok {
			continue
		}
		ceil := float64(b.P99Micros) * (1 + tol)
		if grace := float64(b.P99Micros) + float64(slack.Microseconds()); grace > ceil {
			ceil = grace
		}
		if float64(d.P99Micros) > ceil {
			pass = false
			fmt.Fprintf(w, "  FAIL %s p99 %dus > %.0fus (baseline %dus)\n", d.Device, d.P99Micros, ceil, b.P99Micros)
		} else {
			fmt.Fprintf(w, "  ok   %s p99 %dus vs baseline %dus\n", d.Device, d.P99Micros, b.P99Micros)
		}
	}
	if !pass {
		fmt.Fprintln(w, "baseline regression detected")
	}
	return pass, nil
}

// ---------------------------------------------------------------------------
// Saturation ramp
// ---------------------------------------------------------------------------

type rampConfig struct {
	start, step, max int
	duration         time.Duration
	kneeShed         float64 // shed+degraded rate that marks the knee
	kneeQPS          float64 // achieved/offered ratio under which the knee is declared
}

type rampStep struct {
	OfferedQPS   int     `json:"offered_qps"`
	AchievedQPS  float64 `json:"achieved_qps"`
	P99Micros    int64   `json:"p99_us"` // worst device
	ShedRate     float64 `json:"shed_rate"`
	DegradedRate float64 `json:"degraded_rate"`
	Limiter      string  `json:"limiter"`
}

type rampReport struct {
	Steps        []rampStep `json:"steps"`
	KneeQPS      int        `json:"knee_qps"` // 0 = ceiling reached without saturating
	KneeReason   string     `json:"knee_reason,omitempty"`
	StepDuration string     `json:"step_duration"`
	Seed         uint64     `json:"seed"`
}

// gateKnee enforces -require-knee: the highest step that did not saturate
// (the last step when there is no knee) must have achieved at least 95% of
// min. A knee is the first offered step that saturated, so its own offered
// rate proves nothing about the capacity; a ramp that saturates on its first
// step, or whose ceiling sits below min, fails.
func gateKnee(w *os.File, rr rampReport, min int) bool {
	held := 0.0
	for _, st := range rr.Steps {
		if rr.KneeQPS > 0 && st.OfferedQPS >= rr.KneeQPS {
			break
		}
		held = st.AchievedQPS
	}
	if held < 0.95*float64(min) {
		fmt.Fprintf(w, "FAIL the highest unsaturated step achieved %.1f qps (< 95%% of required %d; knee %d)\n",
			held, min, rr.KneeQPS)
		return false
	}
	fmt.Fprintf(w, "ok   the highest unsaturated step achieved %.1f qps >= 95%% of required %d\n", held, min)
	return true
}

// runRamp steps the offered rate until the server saturates, then runs two
// more steps past the knee so the figure shows the post-knee curve.
func runRamp(cfg config, rc rampConfig) (rampReport, error) {
	if rc.start < 1 || rc.step < 1 || rc.max < rc.start {
		return rampReport{}, fmt.Errorf("ramp %d..%d step %d is not a ramp", rc.start, rc.max, rc.step)
	}
	rr := rampReport{StepDuration: rc.duration.String(), Seed: cfg.seed}
	pastKnee := 0
	for offered := rc.start; offered <= rc.max; offered += rc.step {
		cfg.qps = offered
		cfg.duration = rc.duration
		rep, err := run(cfg)
		if err != nil {
			return rampReport{}, err
		}
		st := rampStep{
			OfferedQPS:  offered,
			AchievedQPS: rep.AchievedQPS,
			Limiter:     rep.Limiter,
		}
		reqs := 0
		shed, degr := 0.0, 0.0
		for _, d := range rep.Devices {
			if d.P99Micros > st.P99Micros {
				st.P99Micros = d.P99Micros
			}
			reqs += d.Requests
			shed += d.ShedRate * float64(d.Requests)
			degr += d.DegradedRate * float64(d.Requests)
		}
		if reqs > 0 {
			st.ShedRate = shed / float64(reqs)
			st.DegradedRate = degr / float64(reqs)
		}
		rr.Steps = append(rr.Steps, st)
		log.Printf("ramp %d qps: achieved %.1f, p99 %dus, shed %.2f%%, degraded %.2f%% (%s)",
			offered, st.AchievedQPS, st.P99Micros, st.ShedRate*100, st.DegradedRate*100, st.Limiter)

		if rr.KneeQPS == 0 {
			switch {
			case st.ShedRate+st.DegradedRate > rc.kneeShed:
				rr.KneeQPS = offered
				rr.KneeReason = fmt.Sprintf("shed+degraded %.2f%% > %.2f%%",
					(st.ShedRate+st.DegradedRate)*100, rc.kneeShed*100)
			case st.Limiter == "server" && st.AchievedQPS < rc.kneeQPS*float64(offered):
				rr.KneeQPS = offered
				rr.KneeReason = fmt.Sprintf("achieved %.1f < %.0f%% of offered", st.AchievedQPS, rc.kneeQPS*100)
			}
		} else {
			// Keep ramping a few steps past the knee so the figure shows the
			// post-saturation curve, then stop.
			if pastKnee++; pastKnee >= 3 {
				break
			}
		}
	}
	return rr, nil
}

func printRamp(w *os.File, rr rampReport) {
	fmt.Fprintf(w, "%-12s %12s %10s %8s %10s %10s\n",
		"offered_qps", "achieved", "p99(us)", "shed%", "degraded%", "limiter")
	for _, st := range rr.Steps {
		fmt.Fprintf(w, "%-12d %12.1f %10d %7.2f%% %9.2f%% %10s\n",
			st.OfferedQPS, st.AchievedQPS, st.P99Micros, st.ShedRate*100, st.DegradedRate*100, st.Limiter)
	}
	if rr.KneeQPS > 0 {
		fmt.Fprintf(w, "saturation knee at %d qps (%s)\n", rr.KneeQPS, rr.KneeReason)
	} else {
		fmt.Fprintf(w, "no knee found: server kept up through the ramp ceiling\n")
	}
}

// rampFigure renders the saturation figure: worst-device p99 over offered
// QPS, achieved-vs-offered throughput, and shed/degraded rates over the same
// axis, stacked so each panel keeps its own honest scale.
func rampFigure(rr rampReport) (string, error) {
	if len(rr.Steps) == 0 {
		return "", fmt.Errorf("ramp produced no steps")
	}
	x := make([]float64, len(rr.Steps))
	p99 := make([]float64, len(rr.Steps))
	achieved := make([]float64, len(rr.Steps))
	shed := make([]float64, len(rr.Steps))
	degraded := make([]float64, len(rr.Steps))
	for i, st := range rr.Steps {
		x[i] = float64(st.OfferedQPS)
		p99[i] = float64(st.P99Micros)
		achieved[i] = st.AchievedQPS
		shed[i] = st.ShedRate * 100
		degraded[i] = st.DegradedRate * 100
	}
	title := "Saturation sweep: no knee up to ramp ceiling"
	if rr.KneeQPS > 0 {
		title = fmt.Sprintf("Saturation sweep: knee at %d qps (%s)", rr.KneeQPS, rr.KneeReason)
	}
	top, err := plot.LineChart{
		Title:   title,
		XLabel:  "offered QPS",
		YLabel:  "p99 latency (us)",
		X:       x,
		Series:  []plot.Series{{Name: "p99 (worst device)", Y: p99}},
		Markers: true,
	}.SVG()
	if err != nil {
		return "", err
	}
	mid, err := plot.LineChart{
		Title:   "Throughput: achieved vs offered",
		XLabel:  "offered QPS",
		YLabel:  "achieved QPS",
		X:       x,
		Series:  []plot.Series{{Name: "achieved", Y: achieved}, {Name: "offered", Y: x}},
		Markers: true,
	}.SVG()
	if err != nil {
		return "", err
	}
	bottom, err := plot.LineChart{
		Title:   "Resilience: shed and degraded rates",
		XLabel:  "offered QPS",
		YLabel:  "rate (%)",
		X:       x,
		Series:  []plot.Series{{Name: "shed", Y: shed}, {Name: "degraded", Y: degraded}},
		Markers: true,
	}.SVG()
	if err != nil {
		return "", err
	}
	return plot.VStack(top, mid, bottom)
}
