package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/workload"
)

func TestPercentile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	lats := []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50), ms(60), ms(70), ms(80), ms(90), ms(100)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, ms(50)},
		{95, ms(100)},
		{99, ms(100)},
		{100, ms(100)},
		{10, ms(10)},
	}
	for _, tc := range cases {
		if got := percentile(lats, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if got := percentile([]time.Duration{ms(7)}, 99); got != ms(7) {
		t.Errorf("single-sample p99 = %v", got)
	}
}

// The shape stream must be a pure function of (seed, index): identical across
// runs, different across seeds, and covering the mix.
func TestShapeStreamDeterminism(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	distinct := map[string]bool{}
	for i := 0; i < 500; i++ {
		a := drawShape(42, i, shapes)
		if b := drawShape(42, i, shapes); a != b {
			t.Fatalf("index %d: %v vs %v across runs", i, a, b)
		}
		distinct[a.String()] = true
	}
	if len(distinct) < 20 {
		t.Errorf("500 draws hit only %d distinct shapes", len(distinct))
	}
	diff := 0
	for i := 0; i < 100; i++ {
		if drawShape(42, i, shapes) != drawShape(43, i, shapes) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed change did not move the shape stream")
	}
}

// End-to-end smoke: a short in-process run must deliver every request and
// produce a coherent report.
func TestInprocessRun(t *testing.T) {
	ts, names, err := inprocessServer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	cfg := config{
		url:      ts.URL,
		qps:      400,
		duration: 250 * time.Millisecond,
		devices:  names,
		seed:     7,
		workers:  8,
		shapes:   16,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Devices) != 2 {
		t.Fatalf("report covers %d devices, want 2", len(rep.Devices))
	}
	total := 0
	for _, d := range rep.Devices {
		total += d.Requests
		if d.Errors != 0 {
			t.Errorf("%s: %d errors", d.Device, d.Errors)
		}
		if d.P50Micros < 0 || d.P99Micros < d.P50Micros {
			t.Errorf("%s: incoherent quantiles p50=%d p99=%d", d.Device, d.P50Micros, d.P99Micros)
		}
	}
	want := int(float64(cfg.qps) * cfg.duration.Seconds())
	if total != want {
		t.Errorf("report accounts for %d requests, want %d", total, want)
	}
	if rep.AchievedQPS <= 0 {
		t.Errorf("achieved qps %v", rep.AchievedQPS)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := run(config{qps: 0}); err == nil {
		t.Error("qps 0 accepted")
	}
}

func TestAttributeLimiter(t *testing.T) {
	interval := 2 * time.Millisecond
	cases := []struct {
		achieved float64
		queueP99 time.Duration
		want     string
	}{
		{499, 0, "none"},                       // within 1% of requested
		{400, 50 * time.Millisecond, "server"}, // short + queue way past interval
		{400, interval, "generator"},           // short but on-schedule queue
	}
	for _, tc := range cases {
		if got := attributeLimiter(500, tc.achieved, interval, tc.queueP99); got != tc.want {
			t.Errorf("attributeLimiter(500, %.0f, %v, %v) = %q, want %q",
				tc.achieved, interval, tc.queueP99, got, tc.want)
		}
	}
}

// The baseline gate must pass itself, pass small improvements, and fail
// regressions beyond tolerance on either achieved QPS or any device's p99.
func TestCompareBaseline(t *testing.T) {
	base := report{
		RequestedQPS: 500, AchievedQPS: 500, Limiter: "none",
		Devices: []deviceReport{
			{Device: "a", P99Micros: 1000},
			{Device: "b", P99Micros: 2000},
		},
	}
	raw, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/base.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		rep  report
		want bool
	}{
		{"identical", base, true},
		{"improved", report{AchievedQPS: 520, Devices: []deviceReport{{Device: "a", P99Micros: 800}}}, true},
		{"within tolerance", report{AchievedQPS: 460, Devices: []deviceReport{{Device: "a", P99Micros: 1050}}}, true},
		{"qps regression", report{AchievedQPS: 400, Devices: []deviceReport{{Device: "a", P99Micros: 1000}}}, false},
		{"p99 regression", report{AchievedQPS: 500, Devices: []deviceReport{{Device: "b", P99Micros: 2500}}}, false},
		{"new device ignored", report{AchievedQPS: 500, Devices: []deviceReport{{Device: "new", P99Micros: 99999}}}, true},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, tc := range cases {
		ok, err := compareBaseline(devnull, path, tc.rep, 0.10, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.want {
			t.Errorf("%s: pass=%v, want %v", tc.name, ok, tc.want)
		}
	}
	if _, err := compareBaseline(devnull, path+".missing", base, 0.10, 0); err == nil {
		t.Error("missing baseline file did not error")
	}

	// Absolute p99 slack absorbs jitter past the relative ceiling but still
	// fails a rise that clears baseline+slack.
	jittery := report{AchievedQPS: 500, Devices: []deviceReport{{Device: "a", P99Micros: 5000}}}
	if ok, err := compareBaseline(devnull, path, jittery, 0.10, 10*time.Millisecond); err != nil || !ok {
		t.Errorf("slack did not absorb a sub-slack p99 rise: ok=%v err=%v", ok, err)
	}
	if ok, err := compareBaseline(devnull, path, jittery, 0.10, time.Millisecond); err != nil || ok {
		t.Errorf("p99 rise past baseline+slack passed: ok=%v err=%v", ok, err)
	}
}

// A short in-process ramp must produce monotone offered steps and a coherent
// figure; with a sub-1.0 achieved threshold and tiny load, the server keeps
// up, so no knee is expected — the point is the plumbing, not saturation.
func TestRampAndFigure(t *testing.T) {
	ts, names, err := inprocessServer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	cfg := config{
		url:     ts.URL,
		devices: names,
		seed:    7,
		workers: 8,
		shapes:  8,
	}
	rr, err := runRamp(cfg, rampConfig{
		start: 100, step: 100, max: 300,
		duration: 150 * time.Millisecond,
		kneeShed: 0.5, kneeQPS: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Steps) == 0 {
		t.Fatal("ramp produced no steps")
	}
	for i, st := range rr.Steps {
		if want := 100 + 100*i; st.OfferedQPS != want {
			t.Errorf("step %d offered %d, want %d", i, st.OfferedQPS, want)
		}
		if st.AchievedQPS <= 0 {
			t.Errorf("step %d achieved %v", i, st.AchievedQPS)
		}
	}
	svg, err := rampFigure(rr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "p99", "shed", "achieved"} {
		if !strings.Contains(svg, want) {
			t.Errorf("ramp figure missing %q", want)
		}
	}

	if _, err := runRamp(cfg, rampConfig{start: 0, step: 1, max: 10}); err == nil {
		t.Error("invalid ramp config accepted")
	}
	if _, err := rampFigure(rampReport{}); err == nil {
		t.Error("empty ramp report rendered a figure")
	}
}

// The -require-knee gate passes only when a step below the knee (any step,
// without a knee) actually sustained ~the floor: a knee on the ramp's top
// step says nothing about what that step achieved.
func TestGateKnee(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cases := []struct {
		name string
		rr   rampReport
		want bool
	}{
		{"knee on the top step", rampReport{KneeQPS: 8000, Steps: []rampStep{
			{OfferedQPS: 2000, AchievedQPS: 2000}, {OfferedQPS: 4000, AchievedQPS: 4000},
			{OfferedQPS: 6000, AchievedQPS: 5998}, {OfferedQPS: 8000, AchievedQPS: 5428},
		}}, false},
		{"knee above a step that held the floor", rampReport{KneeQPS: 10000, Steps: []rampStep{
			{OfferedQPS: 5000, AchievedQPS: 5000}, {OfferedQPS: 7500, AchievedQPS: 7490},
			{OfferedQPS: 10000, AchievedQPS: 8000},
		}}, true},
		{"knee below floor", rampReport{KneeQPS: 5000, Steps: []rampStep{
			{OfferedQPS: 2500, AchievedQPS: 2500}, {OfferedQPS: 5000, AchievedQPS: 3000},
		}}, false},
		{"knee on the first step", rampReport{KneeQPS: 2000, Steps: []rampStep{{OfferedQPS: 2000, AchievedQPS: 1000}}}, false},
		{"no knee, capacity proven", rampReport{Steps: []rampStep{{OfferedQPS: 8000, AchievedQPS: 6700}}}, true},
		{"no knee, ceiling too low", rampReport{Steps: []rampStep{{OfferedQPS: 4000, AchievedQPS: 4000}}}, false},
	}
	for _, tc := range cases {
		if got := gateKnee(devnull, tc.rr, 7000); got != tc.want {
			t.Errorf("%s: gateKnee=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// A run through the in-process fleet is full service even with its only
// replica dark: the router answers every select from the artifact it pulled.
func TestFleetInprocessRun(t *testing.T) {
	f, err := buildScaleFleet(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.outages[0].Kill()
	rep, err := run(config{
		url:      f.rts.URL,
		qps:      400,
		duration: 250 * time.Millisecond,
		seed:     7,
		workers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Devices {
		if d.Requests == 0 || d.Errors != 0 || d.DegradedRate != 0 || d.ShedRate != 0 {
			t.Errorf("%s: %d requests, %d errors, degraded %.3f, shed %.3f with the replica dark",
				d.Device, d.Requests, d.Errors, d.DegradedRate, d.ShedRate)
		}
	}
}
