package sim

import (
	"sync"
	"testing"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/workload"
)

// TestPriceBatchBitIdentical is the batch path's load-bearing guarantee:
// PriceBatch must reproduce per-config Price bit for bit — every Breakdown
// field, including the jittered total — across the full dataset shape
// universe, all 640 configurations, on every device model. The batch
// implementation hoists shape-independent terms and left prefixes of
// products; this test is what makes that hoisting safe to rely on.
func TestPriceBatchBitIdentical(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	cfgs := gemm.AllConfigs()
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9(), device.EmbeddedMaliG72()} {
		t.Run(spec.Name, func(t *testing.T) {
			ref := New(spec)
			bp := ref.Batch(cfgs)
			var row []Breakdown
			for _, s := range shapes {
				row = bp.PriceInto(row[:0], s)
				for i, cfg := range cfgs {
					if want := ref.Price(cfg, s); row[i] != want {
						t.Fatalf("%v on %v: batch %+v != price %+v", cfg, s, row[i], want)
					}
				}
			}
		})
	}
}

// TestPriceBatchZeroAlloc pins the batch path's allocation behavior: with a
// reused row, pricing a shape allocates nothing.
func TestPriceBatchZeroAlloc(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	shapes = shapes[:8]
	cfgs := gemm.AllConfigs()[:160]

	bp := New(device.R9Nano()).Batch(cfgs)
	row := make([]Breakdown, 0, len(cfgs))
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		row = bp.PriceInto(row[:0], shapes[i%len(shapes)])
		i++
	}); n != 0 {
		t.Errorf("batch path allocates %.1f/op, want 0", n)
	}
}

// TestPricedCountsEveryCall checks the pricing counter a caller reads to
// prove a path prices nothing: one count per Price, PriceInto or PriceRow
// call, however many goroutines price at once.
func TestPricedCountsEveryCall(t *testing.T) {
	m := New(device.R9Nano())
	cfgs := gemm.AllConfigs()[:32]
	s := gemm.Shape{M: 384, K: 256, N: 512}
	m.Price(cfgs[0], s)
	m.TimeSeconds(cfgs[1], s)
	bp := m.Batch(cfgs)
	bp.PriceInto(nil, s)
	bp.PriceRow(make([]float64, len(cfgs)), s)
	if got := m.Priced(); got != 4 {
		t.Fatalf("Priced() = %d after 4 pricing calls", got)
	}

	const goroutines, rounds = 8, 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			row := make([]float64, len(cfgs))
			for r := 0; r < rounds; r++ {
				bp.PriceRow(row, s)
			}
		}()
	}
	wg.Wait()
	if got, want := m.Priced(), uint64(4+goroutines*rounds); got != want {
		t.Fatalf("Priced() = %d after concurrent pricing, want %d", got, want)
	}
}

// TestBatchSharesFlattening checks that Batch memoises the struct-of-arrays
// layout per configuration list on models built with New, including for
// callers that pass an equal-but-distinct slice.
func TestBatchSharesFlattening(t *testing.T) {
	m := New(device.R9Nano())
	a := gemm.AllConfigs()[:40]
	b := append([]gemm.Config(nil), a...)
	if m.Batch(a).cp != m.Batch(b).cp {
		t.Error("equal config lists built separate flattenings")
	}
	if m.Batch(a[:20]).cp == m.Batch(a).cp {
		t.Error("different config lists shared a flattening")
	}
}

// BenchmarkPriceBatch / BenchmarkPriceLoop compare the batch pass against N
// independent Price calls. bench-price gates on the batch number against a
// committed baseline.
func BenchmarkPriceBatch(b *testing.B) {
	shapes, _ := workload.DatasetShapes()
	cfgs := gemm.AllConfigs()
	m := &Model{Dev: device.R9Nano(), P: DefaultParams()}
	bp := m.Batch(cfgs)
	row := make([]Breakdown, 0, len(cfgs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = bp.PriceInto(row[:0], shapes[i%len(shapes)])
	}
}

func BenchmarkPriceLoop(b *testing.B) {
	shapes, _ := workload.DatasetShapes()
	cfgs := gemm.AllConfigs()
	m := &Model{Dev: device.R9Nano(), P: DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		for _, cfg := range cfgs {
			m.Price(cfg, s)
		}
	}
}
