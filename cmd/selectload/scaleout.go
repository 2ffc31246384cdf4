package main

// Scale-out runs (-scaleout): an in-process fleet of selectd replicas, built
// exactly as selectd serves, behind the cluster router.
//
// The timeline run kills one replica (seed-chosen) at one third of the run
// and restores it at two thirds, bucketing outcomes over time. The router
// answers every select from the artifact it pulled from the fleet, so the
// figure shows full service in every bucket through the outage, with zero
// 5xx throughout — the router's availability contract under a real mid-run
// crash — and the run checks that the probe loop brings the restored victim
// back into an all-up view.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
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
	killRun  time.Duration // kill timeline run length
	seed     uint64
	workers  int
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

type scaleoutReport struct {
	OfferedQPS int         `json:"offered_qps"` // kill timeline rate
	Seed       uint64      `json:"seed"`
	Kill       *killReport `json:"kill,omitempty"`
}

// scaleFleet is one in-process fleet: n outage-wrapped replicas behind a
// probing router.
type scaleFleet struct {
	router  *cluster.Router
	rts     *httptest.Server
	reps    []*httptest.Server
	srvs    []*serve.Server
	outages []*faultinject.Outage
}

func (f *scaleFleet) Close() {
	if f.rts != nil {
		f.rts.Close()
		f.router.Close()
	}
	for _, ts := range f.reps {
		ts.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
}

// buildScaleFleet trains n identical single-device replicas with selectd's
// default options and fronts them with a router, built from the artifact it
// pulls from them, whose probe loop runs hot enough to notice a mid-run kill
// within ~100ms.
func buildScaleFleet(n int, seed uint64) (*scaleFleet, error) {
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

	router, err := cluster.New(context.Background(), cluster.Options{
		Replicas:      replicas,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	router.Start()
	f.router = router
	f.rts = httptest.NewServer(router.Handler())
	return f, nil
}

// runScaleout is the -scaleout entry point: run the kill timeline, report,
// render, and enforce the availability contract.
func runScaleout(sc scaleoutConfig, jsonPath, figPath string) error {
	rep := scaleoutReport{OfferedQPS: sc.qps, Seed: sc.seed}
	kr, err := runKillTimeline(sc)
	if err != nil {
		return err
	}
	rep.Kill = kr

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
	if kr.BadStatuses > 0 || kr.TransportErrs > 0 {
		return fmt.Errorf("kill run broke the availability contract: %d bad statuses, %d transport errors",
			kr.BadStatuses, kr.TransportErrs)
	}
	if !kr.Reconverged {
		return fmt.Errorf("fleet did not reconverge to an all-up /v1/cluster view after the kill run")
	}
	return nil
}

// runKillTimeline drives the full fleet open-loop while the seed-chosen
// victim is killed at 1/3 of the run and restored at 2/3, bucketing outcomes
// into a recovery timeline.
func runKillTimeline(sc scaleoutConfig) (*killReport, error) {
	f, err := buildScaleFleet(sc.replicas, sc.seed)
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

func printScaleout(w *os.File, rep scaleoutReport) {
	if rep.Kill != nil {
		fmt.Fprintf(w, "kill run (%d replicas): %s killed at %.1fs, restored at %.1fs; bad statuses %d, transport errors %d, reconverged %v\n",
			rep.Kill.Replicas, rep.Kill.Victim, rep.Kill.KillAtS, rep.Kill.RestoreAtS,
			rep.Kill.BadStatuses, rep.Kill.TransportErrs, rep.Kill.Reconverged)
	}
}

// scaleoutFigure renders fig7: the failover timeline, with the kill and
// restore instants named in the panel titles.
func scaleoutFigure(rep scaleoutReport) (string, error) {
	k := rep.Kill
	if k == nil || len(k.Buckets) == 0 {
		return "", fmt.Errorf("scaleout produced no runs to plot")
	}
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
	return plot.VStack(tl, dg)
}
