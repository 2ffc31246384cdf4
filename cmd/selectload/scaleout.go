package main

// Scale-out runs (-scaleout): an in-process fleet of selectd replicas, built
// exactly as selectd serves, behind the consistent-hash router.
//
// The timeline run kills one replica (seed-chosen) at one third of the run
// and restores it at two thirds, bucketing outcomes over time: the figure
// shows full-service throughput dipping while the victim's shard fails over
// and recovering after restore, with zero non-degraded 5xx throughout — the
// router's availability contract under a real mid-run crash.
//
// The warmed phase rebuilds the fleet with the router's edge cache on, primes
// every shape through the router, and measures what the cache-hit path
// sustains over three offered rates.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"kernelselect/internal/cluster"
	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/faultinject"
	"kernelselect/internal/gemm"
	"kernelselect/internal/plot"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

type scaleoutConfig struct {
	replicas int           // fleet size
	qps      int           // offered rate of the kill timeline
	duration time.Duration // per-step measurement window of the warmed phase
	killRun  time.Duration // kill timeline run length (0 skips)
	seed     uint64
	workers  int

	// Warmed fast-path phase: the fleet is rebuilt with the router's edge
	// cache on, the whole shape mix is warmed through the router, and a
	// 3-step offered sweep measures what the fast path serves. warmedQPS 0
	// skips the phase.
	warmedQPS  int
	warmedGate float64       // full-service QPS floor at the top offered step (0 = no gate)
	warmedP99  time.Duration // p99 ceiling at the top offered step (0 = no gate)
}

type killBucket struct {
	TSeconds       float64 `json:"t_s"`
	AchievedQPS    float64 `json:"achieved_qps"`
	FullServiceQPS float64 `json:"full_service_qps"`
	DegradedRate   float64 `json:"degraded_rate"`
}

type killReport struct {
	Replicas      int          `json:"replicas"`
	Victim        string       `json:"victim"`
	KillAtS       float64      `json:"kill_at_s"`
	RestoreAtS    float64      `json:"restore_at_s"`
	Buckets       []killBucket `json:"buckets"`
	BadStatuses   int          `json:"bad_statuses"` // anything other than 200/429
	TransportErrs int          `json:"transport_errors"`
	Reconverged   bool         `json:"reconverged"` // /v1/cluster all-up after the run
}

type warmedPoint struct {
	OfferedQPS     int     `json:"offered_qps"`
	AchievedQPS    float64 `json:"achieved_qps"`
	FullServiceQPS float64 `json:"full_service_qps"`
	P99Micros      int64   `json:"p99_us"`
	DegradedRate   float64 `json:"degraded_rate"`
	Errors         int     `json:"errors"`
	EdgeHitRate    float64 `json:"edge_hit_rate"` // router-side, from /metrics deltas
}

type warmedReport struct {
	Replicas     int           `json:"replicas"`
	WarmedShapes int           `json:"warmed_shapes"`
	Points       []warmedPoint `json:"points"`
}

type scaleoutReport struct {
	OfferedQPS   int           `json:"offered_qps"`   // kill timeline rate
	StepDuration string        `json:"step_duration"` // warmed-phase step length
	Seed         uint64        `json:"seed"`
	Kill         *killReport   `json:"kill,omitempty"`
	Warmed       *warmedReport `json:"warmed,omitempty"`
}

// scaleFleet is one in-process fleet: n outage-wrapped replicas behind a
// probing router with a local fallback engine.
type scaleFleet struct {
	router  *cluster.Router
	rts     *httptest.Server
	reps    []*httptest.Server
	srvs    []*serve.Server
	outages []*faultinject.Outage
	local   *serve.Server
}

func (f *scaleFleet) Close() {
	f.rts.Close()
	f.router.Close()
	for _, ts := range f.reps {
		ts.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.local.Close()
}

// buildScaleFleet trains n identical single-device replicas with selectd's
// default options and fronts them with a router whose probe loop runs hot
// enough to notice a mid-run kill within ~100ms.
//
// edgeCache turns the router's edge cache on. The kill timeline keeps it off,
// so every request crosses to a replica and the victim's outage shows; the
// warmed phase turns it on to measure what the cache-hit path itself
// sustains.
func buildScaleFleet(n int, seed uint64, edgeCache bool) (*scaleFleet, error) {
	allShapes, _ := workload.DatasetShapes()
	configs := gemm.AllConfigs()[:160]
	trainShapes := allShapes[:24]
	spec := device.R9Nano()

	f := &scaleFleet{}
	replicas := make([]*cluster.Replica, n)
	for i := 0; i < n; i++ {
		model := sim.New(spec)
		ds := dataset.Build(model, trainShapes, configs)
		lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 8, seed)
		srv := serve.New(lib, model, serve.Options{})
		o := faultinject.NewOutage()
		ts := httptest.NewServer(o.Middleware(srv.Handler()))
		f.srvs = append(f.srvs, srv)
		f.outages = append(f.outages, o)
		f.reps = append(f.reps, ts)
		replicas[i] = cluster.NewReplica(fmt.Sprintf("replica-%d", i), ts.URL, nil)
	}

	model := sim.New(spec)
	ds := dataset.Build(model, trainShapes, configs)
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 8, seed)
	f.local = serve.New(lib, model, serve.Options{})

	ropts := cluster.Options{
		Replicas:      replicas,
		Local:         f.local,
		Retries:       2,
		RetryBackoff:  2 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
	}
	if edgeCache {
		ropts.EdgeCacheSize = 4096
	}
	router, err := cluster.New(ropts)
	if err != nil {
		f.partialClose()
		return nil, err
	}
	router.Start()
	f.router = router
	f.rts = httptest.NewServer(router.Handler())
	return f, nil
}

// partialClose releases whatever a failed build already allocated.
func (f *scaleFleet) partialClose() {
	for _, ts := range f.reps {
		ts.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	if f.local != nil {
		f.local.Close()
	}
}

// runScaleout is the -scaleout entry point: run the kill timeline and the
// warmed phase, gate, report, render.
func runScaleout(sc scaleoutConfig, jsonPath, figPath string) error {
	rep := scaleoutReport{
		OfferedQPS:   sc.qps,
		StepDuration: sc.duration.String(),
		Seed:         sc.seed,
	}
	if sc.killRun > 0 {
		kr, err := runKillTimeline(sc)
		if err != nil {
			return err
		}
		rep.Kill = kr
	}

	if sc.warmedQPS > 0 {
		wr, err := runWarmedPhase(sc)
		if err != nil {
			return err
		}
		rep.Warmed = wr
	}

	printScaleout(os.Stdout, rep)
	if jsonPath != "" {
		writeJSONFile(jsonPath, rep)
	}
	if figPath != "" {
		svg, err := scaleoutFigure(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(figPath, []byte(svg), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", figPath)
	}
	if sc.warmedGate > 0 && rep.Warmed != nil && !gateWarmed(os.Stdout, rep.Warmed, sc) {
		os.Exit(1)
	}
	if rep.Kill != nil {
		if rep.Kill.BadStatuses > 0 || rep.Kill.TransportErrs > 0 {
			return fmt.Errorf("kill run broke the availability contract: %d bad statuses, %d transport errors",
				rep.Kill.BadStatuses, rep.Kill.TransportErrs)
		}
		if !rep.Kill.Reconverged {
			return fmt.Errorf("fleet did not reconverge to an all-up /v1/cluster view after the kill run")
		}
	}
	return nil
}

// runKillTimeline drives the full fleet open-loop while the seed-chosen
// victim is killed at 1/3 of the run and restored at 2/3, bucketing outcomes
// into a recovery timeline.
func runKillTimeline(sc scaleoutConfig) (*killReport, error) {
	f, err := buildScaleFleet(sc.replicas, sc.seed, false)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	victim := int(sc.seed % uint64(sc.replicas))
	killAt := sc.killRun / 3
	restoreAt := 2 * sc.killRun / 3
	kr := &killReport{
		Replicas:   sc.replicas,
		Victim:     fmt.Sprintf("replica-%d", victim),
		KillAtS:    killAt.Seconds(),
		RestoreAtS: restoreAt.Seconds(),
	}

	shapes, _ := workload.DatasetShapes()
	total := int(float64(sc.qps) * sc.killRun.Seconds())
	interval := sc.killRun / time.Duration(total)
	const bucketDur = 250 * time.Millisecond
	nBuckets := int(sc.killRun/bucketDur) + 1
	type bucketAgg struct {
		n, degraded, shed int
	}
	aggs := make([]bucketAgg, nBuckets)
	var mu sync.Mutex

	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, total)
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < sc.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if d := time.Until(j.due); d > 0 {
					time.Sleep(d)
				}
				shape := drawShape(sc.seed, j.i, shapes)
				raw, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
				resp, err := client.Post(f.rts.URL+"/v1/select", "application/json", bytes.NewReader(raw))
				bucket := int(time.Since(start) / bucketDur)
				if bucket >= nBuckets {
					bucket = nBuckets - 1
				}
				mu.Lock()
				agg := &aggs[bucket]
				agg.n++
				if err != nil {
					kr.TransportErrs++
					mu.Unlock()
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var d struct {
						Degraded bool `json:"degraded"`
					}
					if json.NewDecoder(resp.Body).Decode(&d) == nil && d.Degraded {
						agg.degraded++
					}
				case http.StatusTooManyRequests:
					agg.shed++
				default:
					kr.BadStatuses++
				}
				mu.Unlock()
				resp.Body.Close()
			}
		}()
	}

	// The conductor: kill the victim's transport mid-run, restore it later;
	// the router's probe loop notices both transitions on its own.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(killAt)
		f.outages[victim].Kill()
		log.Printf("killed %s at t=%.2fs", kr.Victim, time.Since(start).Seconds())
		time.Sleep(restoreAt - killAt)
		f.outages[victim].Restore()
		log.Printf("restored %s at t=%.2fs", kr.Victim, time.Since(start).Seconds())
	}()

	for i := 0; i < total; i++ {
		jobs <- job{i: i, due: start.Add(time.Duration(i) * interval)}
	}
	close(jobs)
	wg.Wait()
	<-done

	for i, agg := range aggs {
		if agg.n == 0 {
			continue
		}
		b := killBucket{
			TSeconds:     (time.Duration(i) * bucketDur).Seconds(),
			AchievedQPS:  float64(agg.n) / bucketDur.Seconds(),
			DegradedRate: float64(agg.degraded) / float64(agg.n),
		}
		b.FullServiceQPS = b.AchievedQPS * (1 - float64(agg.degraded+agg.shed)/float64(agg.n))
		kr.Buckets = append(kr.Buckets, b)
	}

	// Re-convergence: the probe loop should return the restored victim to the
	// all-up view within a few probe intervals.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		up := 0
		for _, e := range f.router.View().Replicas {
			if e.State == cluster.StateUp {
				up++
			}
		}
		if up == sc.replicas {
			kr.Reconverged = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return kr, nil
}

// runWarmedPhase rebuilds the full fleet with the router's edge cache on,
// primes every shape in the mix through the router, then sweeps three
// offered rates up to warmedQPS. With the cache warm, nearly every request
// is a pre-rendered zero-allocation hit, so the fleet's ceiling is the
// router's proxy loop rather than the replicas' admission budgets — the
// phase measures that ceiling and the hit-path latency.
func runWarmedPhase(sc scaleoutConfig) (*warmedReport, error) {
	// The router's hit path allocates nothing, but this process also hosts
	// the load generator, whose per-request marshal/decode garbage drives GC
	// mark assists that land in the measured tail. Relax the GC for the
	// duration of the phase — the heap stays small either way — so the p99
	// reflects the serving path, not the measurement client's trash.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	f, err := buildScaleFleet(sc.replicas, sc.seed, true)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	shapes, _ := workload.DatasetShapes()
	if err := warmFastPath(f.rts.URL, nil, shapes); err != nil {
		return nil, err
	}
	wr := &warmedReport{Replicas: sc.replicas, WarmedShapes: len(shapes)}

	// A cache hit round-trips in well under a millisecond, so rate x latency
	// with generous slack needs only a couple dozen in-flight slots; more
	// workers would just fight the scheduler and poison the hit-path tail.
	workers := sc.workers
	if workers > 24 {
		workers = 24
	}

	for _, qps := range []int{sc.warmedQPS / 2, sc.warmedQPS * 3 / 4, sc.warmedQPS} {
		// Pay down the allocation debt of fleet building, warming, and the
		// previous step outside the measured window, so no collection lands
		// mid-step on a small host.
		runtime.GC()
		hits0, _ := scrapeMetric(f.rts.URL, "router_edge_cache_hits_total")
		miss0, _ := scrapeMetric(f.rts.URL, "router_edge_cache_misses_total")
		r, err := run(config{
			url:      f.rts.URL,
			qps:      qps,
			duration: sc.duration,
			seed:     sc.seed,
			workers:  workers,
		})
		if err != nil {
			return nil, err
		}
		hits1, _ := scrapeMetric(f.rts.URL, "router_edge_cache_hits_total")
		miss1, _ := scrapeMetric(f.rts.URL, "router_edge_cache_misses_total")
		pt := warmedPoint{OfferedQPS: qps, AchievedQPS: r.AchievedQPS}
		for _, d := range r.Devices {
			pt.P99Micros = d.P99Micros
			pt.DegradedRate = d.DegradedRate
			pt.Errors = d.Errors
			pt.FullServiceQPS = r.AchievedQPS * (1 - d.DegradedRate - d.ShedRate)
		}
		if dh, dm := hits1-hits0, miss1-miss0; dh+dm > 0 {
			pt.EdgeHitRate = dh / (dh + dm)
		}
		wr.Points = append(wr.Points, pt)
		log.Printf("warmed fleet @%d offered: achieved %.1f qps (%.1f full service), p99 %dus, edge hit rate %.1f%%",
			qps, pt.AchievedQPS, pt.FullServiceQPS, pt.P99Micros, pt.EdgeHitRate*100)
	}
	return wr, nil
}

// warmFastPath primes a router's edge cache from the client side: it
// requests every shape on every device route (none means the default route)
// until each answers full quality. Degraded answers are never cached, so a
// warm pass that tolerated them would leave cold entries behind and the
// measured run would mix upstream round trips into the hit-path numbers. It
// serves the warmed phase and selectload -warm -url alike.
func warmFastPath(url string, devices []string, shapes []gemm.Shape) error {
	if len(devices) == 0 {
		devices = []string{""}
	}
	type job struct {
		device string
		shape  gemm.Shape
	}
	client := &http.Client{Timeout: 30 * time.Second}
	jobs := make(chan job, len(devices)*len(shapes))
	for _, d := range devices {
		for _, s := range shapes {
			jobs <- job{d, s}
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := warmShape(client, url, j.device, j.shape); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func warmShape(client *http.Client, url, device string, s gemm.Shape) error {
	raw, _ := json.Marshal(map[string]any{"m": s.M, "k": s.K, "n": s.N, "device": device})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Post(url+"/v1/select", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		var d struct {
			Degraded bool `json:"degraded"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && derr == nil && !d.Degraded {
			return nil
		}
		// Refused or degraded: give the fleet a beat before asking again.
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("shape %dx%dx%d never reached full quality during the warm pass", s.M, s.K, s.N)
}

// scrapeMetric reads one un-labeled metric value from the router's
// Prometheus text exposition.
func scrapeMetric(url, name string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found in %s/metrics", name, url)
}

// gateWarmed enforces the fast-path contract at the top offered step: the
// warmed fleet holds the full-service floor, keeps the (cache-hit dominated)
// p99 under the ceiling, and records not a single transport or 5xx error.
func gateWarmed(w *os.File, wr *warmedReport, sc scaleoutConfig) bool {
	top := wr.Points[len(wr.Points)-1]
	pass := true
	if top.FullServiceQPS < sc.warmedGate {
		pass = false
		fmt.Fprintf(w, "FAIL warmed fleet full-service qps %.1f < floor %.1f\n", top.FullServiceQPS, sc.warmedGate)
	} else {
		fmt.Fprintf(w, "ok   warmed fleet full-service qps %.1f >= floor %.1f\n", top.FullServiceQPS, sc.warmedGate)
	}
	if sc.warmedP99 > 0 {
		if ceil := sc.warmedP99.Microseconds(); top.P99Micros > ceil {
			pass = false
			fmt.Fprintf(w, "FAIL warmed fleet p99 %dus > ceiling %dus\n", top.P99Micros, ceil)
		} else {
			fmt.Fprintf(w, "ok   warmed fleet p99 %dus <= ceiling %dus\n", top.P99Micros, ceil)
		}
	}
	if top.Errors > 0 {
		pass = false
		fmt.Fprintf(w, "FAIL warmed fleet recorded %d errors, want 0\n", top.Errors)
	} else {
		fmt.Fprintf(w, "ok   warmed fleet recorded 0 errors\n")
	}
	return pass
}

func printScaleout(w *os.File, rep scaleoutReport) {
	if rep.Kill != nil {
		fmt.Fprintf(w, "kill run (%d replicas): %s killed at %.1fs, restored at %.1fs; bad statuses %d, transport errors %d, reconverged %v\n",
			rep.Kill.Replicas, rep.Kill.Victim, rep.Kill.KillAtS, rep.Kill.RestoreAtS,
			rep.Kill.BadStatuses, rep.Kill.TransportErrs, rep.Kill.Reconverged)
	}
	if wr := rep.Warmed; wr != nil {
		fmt.Fprintf(w, "warmed fast path (%d replicas, %d shapes primed):\n", wr.Replicas, wr.WarmedShapes)
		fmt.Fprintf(w, "%-9s %12s %14s %10s %10s %7s %7s\n",
			"offered", "achieved", "full_service", "p99(us)", "degraded%", "hit%", "errors")
		for _, pt := range wr.Points {
			fmt.Fprintf(w, "%-9d %12.1f %14.1f %10d %9.2f%% %6.1f%% %7d\n",
				pt.OfferedQPS, pt.AchievedQPS, pt.FullServiceQPS, pt.P99Micros,
				pt.DegradedRate*100, pt.EdgeHitRate*100, pt.Errors)
		}
	}
}

// scaleoutFigure renders fig7: the failover timeline, with the kill and
// restore instants named in the panel titles, and the warmed phase.
func scaleoutFigure(rep scaleoutReport) (string, error) {
	var panels []string
	if k := rep.Kill; k != nil && len(k.Buckets) > 0 {
		tx := make([]float64, len(k.Buckets))
		ach := make([]float64, len(k.Buckets))
		fs := make([]float64, len(k.Buckets))
		degr := make([]float64, len(k.Buckets))
		for i, b := range k.Buckets {
			tx[i] = b.TSeconds
			ach[i] = b.AchievedQPS
			fs[i] = b.FullServiceQPS
			degr[i] = b.DegradedRate * 100
		}
		tl, err := plot.LineChart{
			Title: fmt.Sprintf("Failover timeline (%d replicas): %s killed at %.1fs, restored at %.1fs",
				k.Replicas, k.Victim, k.KillAtS, k.RestoreAtS),
			XLabel:  "time (s)",
			YLabel:  "QPS",
			X:       tx,
			Series:  []plot.Series{{Name: "achieved", Y: ach}, {Name: "full service", Y: fs}},
			Markers: true,
		}.SVG()
		if err != nil {
			return "", err
		}
		dg, err := plot.LineChart{
			Title:   "Degraded rate through the outage window",
			XLabel:  "time (s)",
			YLabel:  "degraded (%)",
			X:       tx,
			Series:  []plot.Series{{Name: "degraded", Y: degr}},
			Markers: true,
		}.SVG()
		if err != nil {
			return "", err
		}
		panels = append(panels, tl, dg)
	}
	if wr := rep.Warmed; wr != nil && len(wr.Points) > 0 {
		wx := make([]float64, len(wr.Points))
		offered := make([]float64, len(wr.Points))
		ach := make([]float64, len(wr.Points))
		fs := make([]float64, len(wr.Points))
		wp99 := make([]float64, len(wr.Points))
		for i, pt := range wr.Points {
			wx[i] = float64(pt.OfferedQPS)
			offered[i] = float64(pt.OfferedQPS)
			ach[i] = pt.AchievedQPS
			fs[i] = pt.FullServiceQPS
			wp99[i] = float64(pt.P99Micros)
		}
		wt, err := plot.LineChart{
			Title: fmt.Sprintf("Warmed fast path (%d replicas, edge cache on)",
				wr.Replicas),
			XLabel: "offered QPS",
			YLabel: "QPS",
			X:      wx,
			Series: []plot.Series{
				{Name: "offered", Y: offered},
				{Name: "achieved", Y: ach},
				{Name: "full service", Y: fs},
			},
			Markers: true,
		}.SVG()
		if err != nil {
			return "", err
		}
		wl, err := plot.LineChart{
			Title:   "Cache-hit p99 under the warmed sweep",
			XLabel:  "offered QPS",
			YLabel:  "p99 (us)",
			X:       wx,
			Series:  []plot.Series{{Name: "p99", Y: wp99}},
			Markers: true,
		}.SVG()
		if err != nil {
			return "", err
		}
		panels = append(panels, wt, wl)
	}
	if len(panels) == 0 {
		return "", fmt.Errorf("scaleout produced no runs to plot")
	}
	return plot.VStack(panels...)
}
