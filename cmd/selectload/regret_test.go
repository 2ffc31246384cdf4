package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// Quantile interpolation must be exact on bucket bounds, linear inside a
// bucket, and clamp to the last finite bound when the rank lands in +Inf.
func TestHistogramQuantile(t *testing.T) {
	bs := []bucket{
		{le: 0, cum: 10},
		{le: 0.01, cum: 10},
		{le: 0.1, cum: 90},
		{le: 0.5, cum: 99},
		{le: math.Inf(1), cum: 100},
	}
	if got := histogramQuantile(bs, 0.10); got != 0 {
		t.Errorf("p10 = %v, want 0 (exact zeros)", got)
	}
	// p50: target rank 50 falls in the (0.01, 0.1] bucket holding ranks
	// 10..90, exactly halfway through it.
	if got, want := histogramQuantile(bs, 0.50), 0.055; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := histogramQuantile(bs, 0.995); got != 0.5 {
		t.Errorf("p99.5 in the +Inf bucket = %v, want last finite bound 0.5", got)
	}
	if got := histogramQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty buckets quantile = %v, want 0", got)
	}
	if got := histogramQuantile([]bucket{{le: 0, cum: 0}, {le: math.Inf(1), cum: 0}}, 0.5); got != 0 {
		t.Errorf("zero-count quantile = %v, want 0", got)
	}
}

func TestGateRegret(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	ok := []regretSummary{{Device: "a", Sampled: 100, Mean: 0.01}, {Device: "b", Sampled: 100, Mean: 0.04}}
	if !gateRegret(devnull, ok, 0.05) {
		t.Error("means under the ceiling failed the gate")
	}
	bad := []regretSummary{{Device: "a", Sampled: 100, Mean: 0.01}, {Device: "b", Sampled: 100, Mean: 0.06}}
	if gateRegret(devnull, bad, 0.05) {
		t.Error("a mean over the ceiling passed the gate")
	}
	if gateRegret(devnull, nil, 0.05) {
		t.Error("an empty summary passed the gate: a run that measured nothing proves nothing")
	}
}

// End-to-end: a closed-loop in-process server under a short load must export
// settled sampled-regret series the scraper turns into coherent summaries.
func TestRegretScrapeInprocess(t *testing.T) {
	ts, names, err := inprocessServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	cfg := config{
		url:      ts.URL,
		qps:      200,
		duration: time.Second,
		devices:  names,
		seed:     7,
		workers:  8,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("run achieved %v qps", rep.AchievedQPS)
	}

	sums, err := scrapeRegret(cfg.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(names) {
		t.Fatalf("regret summaries for %d devices, want %d: %+v", len(sums), len(names), sums)
	}
	for _, rs := range sums {
		if rs.Sampled == 0 {
			t.Errorf("%s: fully-sampled run recorded 0 sampled decisions", rs.Device)
		}
		if rs.Mean < 0 || rs.Mean > 1 {
			t.Errorf("%s: mean regret %v outside [0,1]", rs.Device, rs.Mean)
		}
		if rs.P50 > rs.P95 || rs.P95 > rs.P99 {
			t.Errorf("%s: quantiles not monotone: p50 %v p95 %v p99 %v", rs.Device, rs.P50, rs.P95, rs.P99)
		}
		if rs.Window == 0 {
			t.Errorf("%s: drift window empty after load", rs.Device)
		}
	}
	// The full-mix selector serves its own training distribution: mean
	// sampled regret must sit comfortably under the bench-serve-check
	// ceiling, or the gate in the Makefile is miscalibrated.
	for _, rs := range sums {
		if rs.Mean > 0.05 {
			t.Errorf("%s: mean sampled regret %v above the 0.05 CI ceiling", rs.Device, rs.Mean)
		}
	}
}
