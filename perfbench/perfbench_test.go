package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"kernelselect/internal/gemm"
)

// binDir holds selectd and selectrouter built from the enclosing checkout.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	for _, cmd := range []string{"selectd", "selectrouter"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "kernelselect/cmd/"+cmd)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			panic(err)
		}
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// shortOptions runs the command's own round path, kept short by seconds: 4 s
// gives 8 rounds of 0.5 s, each still well over 1000 answers. On
// fleet-reload caller 0 must send its quality window before the reload in the
// middle of the first round, which takes 8 s.
func shortOptions(t *testing.T, workload string, trace bool) options {
	seconds := 4.0
	if workload == "fleet-reload" {
		seconds = 8
	}
	return options{workload: workload, seed: 7, seconds: seconds, trace: trace, binDir: binDir, workDir: t.TempDir()}
}

func runShort(t *testing.T, opts options) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runOptions(opts, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, out.String(), errOut.String())
	}
	return code, out.String() + errOut.String(), res
}

// A short run of each workload prints every declared metric, with its unit,
// both as a text line and in the result line.
func TestShortRunsPrintEveryDeclaredMetric(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			code, out, res := runShort(t, shortOptions(t, w.Name, trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: no text line for %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// The same seed reproduces the same request stream, the same oracle answers
// and the same quality_pct to the last digit; another seed changes the
// stream.
func TestSameSeedReproduces(t *testing.T) {
	for _, w := range []string{"replica-hot", "replica-dynamic", "fleet-reload"} {
		a, err := buildStream(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildStream(w, 11)
		c, _ := buildStream(w, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 built two different streams", w)
		}
		if reflect.DeepEqual(a.seq, c.seq) {
			t.Errorf("%s: seeds 11 and 12 built the same stream", w)
		}
	}

	st1, _ := buildStream("fleet-reload", 11)
	st2, _ := buildStream("fleet-reload", 11)
	for _, st := range []*stream{st1, st2} {
		ds, lib := trainLibrary(st.devices[0])
		variant, err := reloadVariant(ds, lib, 11)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(1)
		o.libs[0] = []*libOracle{newLibOracle(lib), newLibOracle(variant)}
		o.fill(st)
	}
	differ := 0
	for i := range st1.entries {
		if st1.entries[i].want != st2.entries[i].want {
			t.Fatalf("entry %d: oracle answers %v vs %v", i, st1.entries[i].want, st2.entries[i].want)
		}
		if st1.entries[i].want[0] != st1.entries[i].want[1] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("the two reload artifacts agree on every shape")
	}

	var q []float64
	for i := 0; i < 2; i++ {
		code, out, res := runShort(t, shortOptions(t, "replica-dynamic", false))
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out)
		}
		q = append(q, res.Metrics["quality_pct"].Value)
	}
	if q[0] != q[1] {
		t.Errorf("quality_pct %v then %v for the same seed", q[0], q[1])
	}
}

// A proxy that rewrites one served config makes the command fail.
func TestRewrittenConfigFailsTheRun(t *testing.T) {
	var n atomic.Int64
	opts := shortOptions(t, "replica-hot", false)
	opts.tamper = func(path string, body []byte) []byte {
		if path != "/v1/select" || n.Add(1) != 1000 {
			return body
		}
		var a answer
		if !scanAnswer(body, &a) {
			return body
		}
		all := gemm.AllConfigs()
		other := all[0].String()
		if string(a.cfg) == other {
			other = all[1].String()
		}
		return bytes.Replace(body, []byte(`"config":"`+string(a.cfg)+`"`), []byte(`"config":"`+other+`"`), 1)
	}
	code, out, res := runShort(t, opts)
	if code == 0 || res.Correct {
		t.Fatalf("a rewritten config passed: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "wrong 1,") {
		t.Errorf("want exactly one wrong answer reported:\n%s", out)
	}
}

// The end-to-end figures come from the least stolen rounds, whatever their
// order.
func TestLeastStolen(t *testing.T) {
	var rounds []round
	for i, steal := range []float64{0.2, 0, 0.05, 0.3, 0.01, 0, 0.12, 0.02} {
		rounds = append(rounds, round{stat: roundStat{steal: steal, n: i}})
	}
	var got []int
	for _, r := range leastStolen(rounds, keptRounds) {
		got = append(got, r.stat.n)
	}
	if want := []int{1, 5, 4, 7, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept rounds %v, want %v", got, want)
	}
	if n := len(leastStolen(rounds[:1], keptRounds)); n != 1 {
		t.Errorf("one round kept %d", n)
	}
}

// The daemons get deployment settings only.
func TestDaemonFlagsAreDeploymentOnly(t *testing.T) {
	for _, args := range [][]string{
		selectdArgs("127.0.0.1:1", "127.0.0.1:2", "r9nano,gen9,mali", ""),
		selectdArgs("127.0.0.1:1", "127.0.0.1:2", "r9nano", "lib.json"),
		routerArgs("127.0.0.1:1", "127.0.0.1:2", []string{"http://127.0.0.1:3", "http://127.0.0.1:4"}),
	} {
		if len(args)%2 != 0 {
			t.Fatalf("%v: flags and values do not pair up", args)
		}
		for i := 0; i < len(args); i += 2 {
			if !deploymentFlags[args[i]] {
				t.Errorf("%v: %s is not a deployment setting", args, args[i])
			}
		}
	}
}

func TestScanAnswer(t *testing.T) {
	var a answer
	body := []byte(`{"device":"x","shape":"1x2x3","config":"t4x4a4_wg8x8","index":3,"kernel_id":"t4x4a4","predicted_gflops":1.5e+02,"predicted_norm":1,"cached":true,"generation":2,"degraded":true,"degraded_reason":"budget"}` + "\n")
	if !scanAnswer(body, &a) {
		t.Fatal("scan failed")
	}
	if string(a.cfg) != "t4x4a4_wg8x8" || a.index != 3 || a.gen != 2 || !a.cached || !a.degraded || string(a.reason) != "budget" {
		t.Errorf("scanned %+v", a)
	}
	for _, bad := range []string{`{}`, `{"config":"x","index":1}`, `{"config":"x","index":1,"generation":1,"nested":{}}`, `[1]`} {
		if scanAnswer([]byte(bad), &a) {
			t.Errorf("accepted %s", bad)
		}
	}
}
