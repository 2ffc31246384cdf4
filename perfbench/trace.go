package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// Spans are recorded in memory by the benchmark's own code, around each
// call into a layer, and written out when the run ends.
type spanKind uint8

const (
	spanSelect spanKind = iota
	spanReload
	spanUpstream
	spanProbe
)

var spanNames = [...]string{"client.select", "client.reload", "router.upstream", "probe"}

type span struct {
	kind       spanKind
	name       string // probes only
	id, parent uint64
	entry      int32
	start, end int64 // unix ns
}

func (s span) label() string {
	if s.name != "" {
		return s.name
	}
	return spanNames[s.kind]
}

// upstreamCall is one router→replica exchange seen by the recording proxy.
type upstreamCall struct {
	path       string
	shapes     []gemm.Shape
	start, end int64
}

// recorder collects upstream calls while a traced phase is running.
type recorder struct {
	active atomic.Bool
	mu     sync.Mutex
	calls  []upstreamCall
}

func (b *bench) recordUpstream(c upstreamCall) {
	if b.rec == nil || !b.rec.active.Load() {
		return
	}
	b.rec.mu.Lock()
	b.rec.calls = append(b.rec.calls, c)
	b.rec.mu.Unlock()
}

// proxy relays HTTP/1.1 exchanges between a client and one upstream,
// recording each one and optionally rewriting response bodies.
type proxy struct {
	addr     string
	upstream string
	ln       net.Listener
	record   func(upstreamCall)
	rewrite  func(path string, body []byte) []byte
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    map[net.Conn]bool
}

func startProxy(upstream string, record func(upstreamCall), rewrite func(string, []byte) []byte) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{addr: ln.Addr().String(), upstream: upstream, ln: ln, record: record, rewrite: rewrite, conns: map[net.Conn]bool{}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.track(c, true)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer p.track(c, false)
				p.serveConn(c)
			}()
		}
	}()
	return p, nil
}

func (p *proxy) track(c net.Conn, add bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if add {
		p.conns[c] = true
	} else {
		delete(p.conns, c)
		c.Close()
	}
}

// close stops accepting, cuts every relayed connection and waits for the
// relay goroutines to end.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *proxy) serveConn(c net.Conn) {
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	p.track(up, true)
	defer p.track(up, false)
	cr, ur := bufio.NewReader(c), bufio.NewReader(up)
	for {
		req, err := http.ReadRequest(cr)
		if err != nil {
			return
		}
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return
		}
		start := time.Now()
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		if err := req.Write(up); err != nil {
			return
		}
		resp, err := http.ReadResponse(ur, req)
		if err != nil {
			return
		}
		rbody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return
		}
		end := time.Now()
		if p.rewrite != nil {
			rbody = p.rewrite(req.URL.Path, rbody)
		}
		resp.Body = io.NopCloser(bytes.NewReader(rbody))
		resp.ContentLength = int64(len(rbody))
		resp.TransferEncoding = nil
		resp.Header.Del("Content-Length")
		if err := resp.Write(c); err != nil {
			return
		}
		if p.record != nil {
			p.record(upstreamCall{path: req.URL.Path, shapes: requestShapes(req.URL.Path, body),
				start: start.UnixNano(), end: end.UnixNano()})
		}
		if req.Close || resp.Close {
			return
		}
	}
}

// requestShapes lists the shapes a select or batch request body carries.
func requestShapes(path string, body []byte) []gemm.Shape {
	type wire struct{ M, K, N int }
	switch path {
	case "/v1/select":
		var w wire
		if json.Unmarshal(body, &w) == nil {
			return []gemm.Shape{{M: w.M, K: w.K, N: w.N}}
		}
	case "/v1/select/batch":
		var bw struct{ Shapes []wire }
		if json.Unmarshal(body, &bw) == nil {
			out := make([]gemm.Shape, len(bw.Shapes))
			for i, w := range bw.Shapes {
				out[i] = gemm.Shape{M: w.M, K: w.K, N: w.N}
			}
			return out
		}
	}
	return nil
}

// upstreamReport is what the recording proxy saw in a traced phase.
type upstreamReport struct {
	calls, shapes, warmBatches int
	lat                        []int64 // select and batch round trips, ns
	matched                    int     // calls attributed to a client select
}

// attribute parents each select/batch upstream call to the client select
// span with the same shape whose interval contains it (parents[i] is call
// i's parent span id, 0 if none), and returns the client spans' self times
// (duration minus attributed upstream time) and, for the selects that went
// upstream, the time spent outside the upstream call.
func attribute(st *stream, spans []span, calls []upstreamCall) (rep upstreamReport, parents []uint64, self, waits []int64) {
	byShape := map[gemm.Shape][]int{}
	for i, s := range spans {
		if s.kind == spanSelect {
			sh := st.entries[s.entry].shape
			byShape[sh] = append(byShape[sh], i)
		}
	}
	covered := make([]int64, len(spans))
	parents = make([]uint64, len(calls))
	for ci := range calls {
		c := &calls[ci]
		if c.path != "/v1/select" && c.path != "/v1/select/batch" {
			continue
		}
		// Batches wider than the callers can coalesce are the router's peer
		// warming on reload, not client traffic.
		if len(c.shapes) > numCallers {
			rep.warmBatches++
			continue
		}
		rep.calls++
		rep.shapes += len(c.shapes)
		rep.lat = append(rep.lat, c.end-c.start)
		for _, sh := range c.shapes {
			for _, i := range byShape[sh] {
				if spans[i].start <= c.start && c.end <= spans[i].end {
					covered[i] += c.end - c.start
					parents[ci] = spans[i].id
					rep.matched++
					break
				}
			}
		}
	}
	for i, s := range spans {
		if s.kind != spanSelect {
			continue
		}
		d := s.end - s.start
		cv := min(covered[i], d)
		self = append(self, d-cv)
		if cv > 0 {
			waits = append(waits, d-cv)
		}
	}
	return rep, parents, self, waits
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns\tentry")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.label(), s.id, s.parent, s.start, s.end, s.entry)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probes times direct calls into the layers the daemons run, on the run's
// own inputs. Each timed loop is one span.
type probes struct {
	st    *stream
	or    *oracle
	spans []span
}

func (p *probes) time(name string, calls int, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	p.spans = append(p.spans, span{kind: spanProbe, name: name, entry: -1, start: t0.UnixNano(), end: t1.UnixNano()})
	return float64(t1.Sub(t0).Nanoseconds()) / float64(calls)
}

// build times the deployed set-up pipeline for one device: dataset.Build over
// the dataset shapes and all configurations, then core.BuildLibrary. Each is
// the median of three runs.
func (p *probes) build() (datasetS, libraryS float64) {
	shapes, _ := workload.DatasetShapes()
	spec := p.st.devices[0]
	var dsT, libT []float64
	for i := 0; i < 3; i++ {
		var ds *dataset.PerfDataset
		dsT = append(dsT, p.time("probe.dataset.Build", 1, func() {
			ds = dataset.Build(sim.New(spec), shapes, gemm.AllConfigs())
		})/1e9)
		libT = append(libT, p.time("probe.core.BuildLibrary", 1, func() {
			core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, libSize, libSeed)
		})/1e9)
	}
	return median(dsT), median(libT)
}

// runEntries lists the distinct entries of caller 0's stream in first-seen
// order, at most limit of them.
func (p *probes) runEntries(limit int) []*entry {
	seen := map[int32]bool{}
	var out []*entry
	for _, id := range p.st.seq[0] {
		if !seen[id] {
			seen[id] = true
			out = append(out, &p.st.entries[id])
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

var sinkInt int

func (p *probes) parse() float64 {
	es := p.runEntries(4096)
	rounds := max(1, (1<<20)/len(es))
	return p.time("probe.serve.ParseSelectWire", rounds*len(es), func() {
		for r := 0; r < rounds; r++ {
			for _, e := range es {
				m, _, _, _, _ := serve.ParseSelectWire(e.body)
				sinkInt += m
			}
		}
	})
}

func (p *probes) encode(bodies [][]byte) float64 {
	var ds []serve.Decision
	for _, b := range bodies {
		var d serve.Decision
		if json.Unmarshal(b, &d) == nil {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	rounds := max(1, (1<<19)/len(ds))
	buf := make([]byte, 0, 1024)
	return p.time("probe.serve.AppendDecisionJSON", rounds*len(ds), func() {
		for r := 0; r < rounds; r++ {
			for i := range ds {
				buf = serve.AppendDecisionJSON(buf[:0], &ds[i])
			}
		}
		sinkInt += len(buf)
	})
}

func (p *probes) choose() float64 {
	es := p.runEntries(8192)
	rounds := max(1, (1<<20)/len(es))
	return p.time("probe.core.CompiledChooser", rounds*len(es), func() {
		for r := 0; r < rounds; r++ {
			for _, e := range es {
				sinkInt += p.or.libs[e.dev][0].choose(e.shape)
			}
		}
	})
}

// pricing prices the run's distinct shapes over the library's configurations
// through fresh memoising models, as a replica's miss path does: once on
// first sight, once repeated, and the live-heap growth per distinct shape.
func (p *probes) pricing() (firstNs, repeatNs, bytesPerShape float64) {
	es := p.runEntries(8192)
	pricers := make([]*sim.BatchPricer, len(p.st.devices))
	for d, spec := range p.st.devices {
		pricers[d] = sim.New(spec).Batch(p.or.libs[d][0].lib.Configs)
	}
	row := make([]float64, libSize*4)
	pass := func(name string) float64 {
		return p.time(name, len(es), func() {
			for _, e := range es {
				bp := pricers[e.dev]
				bp.PriceRow(row[:bp.NumConfigs()], e.shape)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	firstNs = pass("probe.sim.PriceRow.first")
	runtime.GC()
	runtime.ReadMemStats(&after)
	repeatNs = pass("probe.sim.PriceRow.repeat")
	runtime.KeepAlive(pricers)
	return firstNs, repeatNs, (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(es))
}
