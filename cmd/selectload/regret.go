package main

// Sampled-regret reporting: after a fixed-rate run the generator scrapes the
// server's /metrics page and folds each device's selectd_regret histogram
// into a quantile summary, so the load report carries selection quality next
// to latency. Regret is measured by the server itself — a sampled fraction of
// live decisions re-priced off the request path against the full config
// universe — which keeps the generator honest: it reports what the server
// observed, not what a second client-side model would predict.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// regretSummary is one device's sampled-regret digest for the JSON report.
type regretSummary struct {
	Device  string  `json:"device"`
	Sampled uint64  `json:"sampled"`
	Dropped uint64  `json:"dropped"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Drift   float64 `json:"drift_score"`
	Window  int     `json:"window_size"`
}

// scrapeRegret polls url/metrics until every device's regret accounting has
// settled (regret measurement is asynchronous: sampled decisions queue to a
// background pricer) or the timeout passes, then summarizes the histograms.
// Devices that sampled nothing are omitted; a server without the closed loop
// enabled returns an empty slice, not an error.
func scrapeRegret(url string, timeout time.Duration) ([]regretSummary, error) {
	deadline := time.Now().Add(timeout)
	var m map[string]float64
	for {
		var err error
		m, err = fetchMetrics(url + "/metrics")
		if err != nil {
			return nil, err
		}
		if regretSettled(m) || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	var out []regretSummary
	for _, dev := range metricDevices(m, "selectd_decisions_sampled_total") {
		sampled := uint64(m[fmt.Sprintf("selectd_decisions_sampled_total{device=%q}", dev)])
		if sampled == 0 {
			continue
		}
		count := m[fmt.Sprintf("selectd_regret_count{device=%q}", dev)]
		sum := m[fmt.Sprintf("selectd_regret_sum{device=%q}", dev)]
		rs := regretSummary{
			Device:  dev,
			Sampled: sampled,
			Dropped: uint64(m[fmt.Sprintf("selectd_regret_dropped_total{device=%q}", dev)]),
			Drift:   m[fmt.Sprintf("selectd_drift_score{device=%q}", dev)],
			Window:  int(m[fmt.Sprintf("selectd_window_size{device=%q}", dev)]),
		}
		if count > 0 {
			rs.Mean = sum / count
			buckets := histogramBuckets(m, "selectd_regret", dev)
			rs.P50 = histogramQuantile(buckets, 0.50)
			rs.P95 = histogramQuantile(buckets, 0.95)
			rs.P99 = histogramQuantile(buckets, 0.99)
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out, nil
}

// regretSettled reports whether every sampled decision has been measured or
// accounted as dropped, per device — the point where the histograms are
// consistent with the run that just finished.
func regretSettled(m map[string]float64) bool {
	for _, dev := range metricDevices(m, "selectd_decisions_sampled_total") {
		sampled := m[fmt.Sprintf("selectd_decisions_sampled_total{device=%q}", dev)]
		measured := m[fmt.Sprintf("selectd_regret_count{device=%q}", dev)] +
			m[fmt.Sprintf("selectd_regret_dropped_total{device=%q}", dev)]
		if measured < sampled {
			return false
		}
	}
	return true
}

// fetchMetrics pulls a Prometheus text page into series-line → value.
func fetchMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// metricDevices lists the device labels present for one series name.
func metricDevices(m map[string]float64, series string) []string {
	prefix := series + `{device="`
	var devs []string
	for k := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				devs = append(devs, rest[:j])
			}
		}
	}
	sort.Strings(devs)
	return devs
}

type bucket struct {
	le  float64
	cum float64
}

// histogramBuckets extracts one device's cumulative buckets, sorted by bound.
func histogramBuckets(m map[string]float64, series, dev string) []bucket {
	prefix := fmt.Sprintf("%s_bucket{device=%q,le=\"", series, dev)
	var bs []bucket
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:j] != "+Inf" {
			f, err := strconv.ParseFloat(rest[:j], 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le: le, cum: v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

// histogramQuantile interpolates the q-th quantile from cumulative buckets,
// Prometheus-style: linear within the bucket that crosses the target rank,
// and the last finite bound when the rank lands in the +Inf bucket.
func histogramQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	target := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevCum)/(b.cum-prevCum)
		}
		if !math.IsInf(b.le, 1) {
			prevLE = b.le
		}
		prevCum = b.cum
	}
	return prevLE
}

func printRegret(w *os.File, sums []regretSummary) {
	fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s %8s %7s %7s\n",
		"sampled regret", "sampled", "mean", "p50", "p95", "p99", "dropped", "drift", "window")
	for _, rs := range sums {
		fmt.Fprintf(w, "%-22s %8d %10.6f %10.6f %10.6f %10.6f %8d %7.3f %7d\n",
			rs.Device, rs.Sampled, rs.Mean, rs.P50, rs.P95, rs.P99, rs.Dropped, rs.Drift, rs.Window)
	}
}

// gateRegret enforces -max-regret: every device that sampled decisions must
// hold its mean regret at or under the ceiling, and at least one device must
// have sampled something — a run that measured nothing proves nothing.
func gateRegret(w *os.File, sums []regretSummary, max float64) bool {
	if len(sums) == 0 {
		fmt.Fprintf(w, "FAIL regret gate: no device exported sampled regret\n")
		return false
	}
	pass := true
	for _, rs := range sums {
		if rs.Mean > max {
			pass = false
			fmt.Fprintf(w, "FAIL %s mean sampled regret %.6f > ceiling %.6f\n", rs.Device, rs.Mean, max)
		} else {
			fmt.Fprintf(w, "ok   %s mean sampled regret %.6f <= ceiling %.6f\n", rs.Device, rs.Mean, max)
		}
	}
	return pass
}
