package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The daemons get deployment settings only: where to listen, where to serve
// pprof, which devices, which replicas and which artifact. Everything else is
// whatever default the commit under test ships, so the benchmark measures
// what an operator runs.
var deploymentFlags = map[string]bool{
	"-addr": true, "-pprof": true, "-devices": true, "-replicas": true, "-library": true,
}

func selectdArgs(addr, pprofAddr, devices, library string) []string {
	args := []string{"-addr", addr, "-pprof", pprofAddr, "-devices", devices}
	if library != "" {
		args = append(args, "-library", library)
	}
	return args
}

func routerArgs(addr, pprofAddr string, replicas []string) []string {
	return []string{"-addr", addr, "-pprof", pprofAddr, "-replicas", strings.Join(replicas, ",")}
}

// daemon is one child process. Its output is kept (bounded) for error
// reports only.
type daemon struct {
	name      string
	addr      string // serving address, host:port
	pprofAddr string
	cmd       *exec.Cmd
	out       *tailBuffer
	done      chan struct{}
	waitErr   error
}

// spawn starts commands from one OS thread that never exits. Linux sends
// Pdeathsig when the thread that forked the child ends, not the process, so
// forking from an arbitrary runtime thread could kill a daemon mid-run.
var spawner = func() chan spawnReq {
	ch := make(chan spawnReq)
	go func() {
		runtime.LockOSThread()
		for req := range ch {
			req.err <- req.cmd.Start()
		}
	}()
	return ch
}()

type spawnReq struct {
	cmd *exec.Cmd
	err chan error
}

func startDaemon(name, bin string, args []string, addr, pprofAddr string) (*daemon, error) {
	for i := 0; i < len(args); i += 2 {
		if !deploymentFlags[args[i]] {
			return nil, fmt.Errorf("%s: %s is not a deployment setting", name, args[i])
		}
	}
	d := &daemon{name: name, addr: addr, pprofAddr: pprofAddr, out: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// A harness that dies without cleaning up must not leave daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	req := spawnReq{cmd: d.cmd, err: make(chan error, 1)}
	spawner <- req
	if err := <-req.err; err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than a few seconds.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

func (d *daemon) describeExit() string {
	return fmt.Sprintf("%s exited (%v); output tail:\n%s", d.name, d.waitErr, d.out.String())
}

// cpuTicks reads user+system CPU of the whole process (all threads, live
// and exited) from /proc/<pid>/stat, in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		if d.exited() {
			return 0, fmt.Errorf("%s", d.describeExit())
		}
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields restart after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed /proc stat", d.name)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", d.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad /proc stat times", d.name)
	}
	return ut + st, nil
}

// clockTicksPerSecond is Linux's USER_HZ, fixed at 100 on every supported
// architecture.
const clockTicksPerSecond = 100

// heapStats is the runtime.MemStats subset the heap profile reports.
type heapStats struct {
	HeapAlloc, Mallocs, NumGC uint64
}

// heap reads the daemon's MemStats from its pprof heap profile; gc forces a
// collection first, so HeapAlloc is the live heap.
func (d *daemon) heap(gc bool) (heapStats, error) {
	url := "http://" + d.pprofAddr + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	body, err := httpGet(url)
	if err != nil {
		return heapStats{}, fmt.Errorf("%s heap profile: %w", d.name, err)
	}
	var hs heapStats
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			key string
			dst *uint64
		}{{"# HeapAlloc = ", &hs.HeapAlloc}, {"# Mallocs = ", &hs.Mallocs}, {"# NumGC = ", &hs.NumGC}} {
			if v, ok := strings.CutPrefix(line, f.key); ok {
				n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return heapStats{}, fmt.Errorf("%s heap profile: %q: %w", d.name, line, err)
				}
				*f.dst = n
				found++
			}
		}
	}
	if found != 3 {
		return heapStats{}, fmt.Errorf("%s heap profile: MemStats lines missing", d.name)
	}
	return hs, nil
}

var probeClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// selectdHealth is the subset of selectd's /healthz body readiness needs.
type selectdHealth struct {
	Status   string `json:"status"`
	Backends []struct {
		Device       string `json:"device"`
		Generation   uint64 `json:"generation"`
		WarmComplete bool   `json:"warm_complete"`
	} `json:"backends"`
}

type routerHealth struct {
	Status      string `json:"status"`
	ReplicasUp  int    `json:"replicas_up"`
	ReplicasAll int    `json:"replicas_total"`
}

// pollInterval bounds how late readiness is noticed.
const pollInterval = time.Millisecond

// waitFor polls GET url every pollInterval until ready accepts a 200 body,
// the daemon exits, or the deadline passes.
func waitFor(ctx context.Context, d *daemon, path string, ready func([]byte) bool) error {
	url := "http://" + d.addr + path
	for {
		resp, err := probeClient.Get(url)
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ready(b) {
				return nil
			}
		}
		if d.exited() {
			if strings.Contains(d.out.String(), "address already in use") {
				return fmt.Errorf("%s: %w", d.name, errPortTaken)
			}
			return fmt.Errorf("waiting for %s: %s", path, d.describeExit())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s: %w", d.name, path, ctx.Err())
		case <-time.After(pollInterval):
		}
	}
}

func selectdListening([]byte) bool { return true }

func selectdWarm(b []byte) bool {
	var h selectdHealth
	if json.Unmarshal(b, &h) != nil || h.Status != "ok" || len(h.Backends) == 0 {
		return false
	}
	for _, be := range h.Backends {
		if !be.WarmComplete {
			return false
		}
	}
	return true
}

func routerReady(b []byte) bool {
	var h routerHealth
	return json.Unmarshal(b, &h) == nil && h.Status == "ok" && h.ReplicasAll > 0 && h.ReplicasUp == h.ReplicasAll
}

// freeAddrs reserves n distinct loopback ports by binding them all and then
// releasing them.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve a port: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// errPortTaken marks a daemon that could not bind the port it was given.
var errPortTaken = errors.New("port taken before the daemon bound it")

// scrapeCounter sums every sample of a Prometheus series in a /metrics body.
// found is false when the series is not exported at all.
func scrapeCounter(text []byte, name string) (sum float64, found bool) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue
		}
		sum += v
		found = true
	}
	return sum, found
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - t.max; over > 0 {
		t.b = append(t.b[:0], t.b[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// hostTicks is the machine-wide CPU time from /proc/stat: all states, and
// the part a hypervisor stole from this virtual machine.
type hostTicks struct{ total, steal int64 }

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("malformed /proc/stat")
	}
	var h hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user..steal; guest time is already counted in user
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

func (h hostTicks) stealShare(prev hostTicks) float64 {
	if h.total == prev.total {
		return 0
	}
	return float64(h.steal-prev.steal) / float64(h.total-prev.total)
}
