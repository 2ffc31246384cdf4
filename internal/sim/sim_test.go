package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

func model() *Model { return New(device.R9Nano()) }

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec accepted")
		}
	}()
	New(device.Spec{Name: "broken"})
}

func TestPricePositiveAndFinite(t *testing.T) {
	m := model()
	shapes := []gemm.Shape{
		{M: 1, N: 1, K: 1},
		{M: 1, N: 1000, K: 4096},
		{M: 12544, K: 576, N: 512},
		{M: 3136, K: 64, N: 256},
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		cfgs := gemm.AllConfigs()
		cfg := cfgs[r.Intn(len(cfgs))]
		s := shapes[r.Intn(len(shapes))]
		b := m.Price(cfg, s)
		return b.TotalSec > 0 && b.GFLOPS > 0 &&
			b.ComputeSec > 0 && b.MemorySec > 0 &&
			b.EdgeWaste >= 1 && b.Occupancy > 0 && b.Occupancy <= 1 &&
			b.DeviceFill > 0 && b.DeviceFill <= 1 &&
			b.ALUUtil > 0 && b.ALUUtil < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGFLOPSBelowPeak(t *testing.T) {
	m := model()
	peak := m.Dev.PeakGFLOPS()
	for _, cfg := range gemm.AllConfigs() {
		g := m.GFLOPS(cfg, gemm.Shape{M: 4096, N: 4096, K: 4096})
		if g >= peak {
			t.Fatalf("%v achieves %v ≥ peak %v", cfg, g, peak)
		}
	}
}

func TestDeterministic(t *testing.T) {
	m1, m2 := model(), model()
	cfg := gemm.Config{TileRows: 4, TileCols: 4, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}}
	s := gemm.Shape{M: 1234, N: 567, K: 89}
	if m1.GFLOPS(cfg, s) != m2.GFLOPS(cfg, s) {
		t.Fatal("model is not deterministic")
	}
}

func TestOccupancyDropsWithTileSize(t *testing.T) {
	// Larger register tiles must reduce occupancy: t8x8a8 uses far more
	// registers than t1x1a1.
	m := model()
	small := m.Price(gemm.Config{TileRows: 1, TileCols: 1, AccDepth: 1, WG: gemm.WorkGroup{R: 16, C: 16}}, gemm.Shape{M: 4096, N: 4096, K: 512})
	big := m.Price(gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 8, WG: gemm.WorkGroup{R: 16, C: 16}}, gemm.Shape{M: 4096, N: 4096, K: 512})
	if big.Occupancy >= small.Occupancy {
		t.Fatalf("occupancy: big tile %v ≥ small tile %v", big.Occupancy, small.Occupancy)
	}
}

func TestALUUtilGrowsWithTileSize(t *testing.T) {
	m := model()
	s := gemm.Shape{M: 4096, N: 4096, K: 512}
	small := m.Price(gemm.Config{TileRows: 1, TileCols: 1, AccDepth: 1, WG: gemm.WorkGroup{R: 16, C: 16}}, s)
	big := m.Price(gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}}, s)
	if big.ALUUtil <= small.ALUUtil {
		t.Fatalf("ALU util: big tile %v ≤ small tile %v", big.ALUUtil, small.ALUUtil)
	}
	if small.ALUUtil > 0.2 {
		t.Fatalf("1×1×1 tile ALU util %v implausibly high", small.ALUUtil)
	}
}

func TestEdgeWastePenalisesRaggedShapes(t *testing.T) {
	m := model()
	cfg := gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}}
	// Group tile is 128×128. At device-filling sizes, a one-element overhang
	// pads a whole extra tile row and column of work.
	exact := m.Price(cfg, gemm.Shape{M: 2048, N: 2048, K: 512})
	ragged := m.Price(cfg, gemm.Shape{M: 2049, N: 2049, K: 512})
	if exact.EdgeWaste != 1 {
		t.Fatalf("exact-fit edge waste = %v, want 1", exact.EdgeWaste)
	}
	if ragged.EdgeWaste < 1.1 {
		t.Fatalf("ragged edge waste = %v, want ≈1.13", ragged.EdgeWaste)
	}
	if ragged.GFLOPS >= exact.GFLOPS {
		t.Fatalf("ragged shape not slower than exact fit (%v ≥ %v)", ragged.GFLOPS, exact.GFLOPS)
	}
	// At sub-device-filling sizes the small-tile edge waste is extreme.
	tiny := m.Price(cfg, gemm.Shape{M: 129, N: 129, K: 512})
	if tiny.EdgeWaste < 3 {
		t.Fatalf("129×129 edge waste = %v, want ≈3.9", tiny.EdgeWaste)
	}
}

func TestSmallProblemsFavourSmallGroupTiles(t *testing.T) {
	// A 64×64 GEMM cannot fill the device with 128×128 group tiles: a
	// one-group dispatch must lose badly to a config with many small groups.
	m := model()
	s := gemm.Shape{M: 64, N: 64, K: 64}
	big := m.Price(gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}}, s)
	small := m.Price(gemm.Config{TileRows: 1, TileCols: 1, AccDepth: 4, WG: gemm.WorkGroup{R: 8, C: 8}}, s)
	if big.NumGroups != 1 {
		t.Fatalf("big-tile dispatch = %d groups, want 1", big.NumGroups)
	}
	if small.NumGroups <= big.NumGroups {
		t.Fatal("small tile did not produce more groups")
	}
}

func TestLaunchOverheadDominatesTinyGEMM(t *testing.T) {
	m := model()
	cfg := gemm.Config{TileRows: 2, TileCols: 2, AccDepth: 2, WG: gemm.WorkGroup{R: 8, C: 8}}
	b := m.Price(cfg, gemm.Shape{M: 4, N: 4, K: 4})
	if b.TotalSec < m.Dev.LaunchOverheadUS*1e-6 {
		t.Fatalf("total %v below launch overhead", b.TotalSec)
	}
	// Overhead should be ≥ 90% of the total for a 4×4×4 problem.
	if m.Dev.LaunchOverheadUS*1e-6/b.TotalSec < 0.9 {
		t.Fatalf("launch overhead fraction %v too small", m.Dev.LaunchOverheadUS*1e-6/b.TotalSec)
	}
}

func TestSpillPenaltyOnSmallRegisterFile(t *testing.T) {
	// The embedded device has a 128-register file; the 8×8×8 kernel needs
	// more and must be flagged as spilled there but not on the R9 Nano.
	cfg := gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 8, WG: gemm.WorkGroup{R: 8, C: 8}}
	s := gemm.Shape{M: 512, N: 512, K: 512}
	nano := New(device.R9Nano()).Price(cfg, s)
	mali := New(device.EmbeddedMaliG72()).Price(cfg, s)
	if nano.Spilled {
		t.Fatal("R9 Nano spilled on 8x8x8")
	}
	if !mali.Spilled {
		t.Fatal("embedded device did not spill on 8x8x8")
	}
}

func TestMemoryBoundLowIntensity(t *testing.T) {
	// K=1 GEMM has arithmetic intensity < 1 flop/byte: memory time must
	// dominate compute time for any config.
	m := model()
	s := gemm.Shape{M: 2048, N: 2048, K: 1}
	for _, cfg := range gemm.AllConfigs()[:40] {
		b := m.Price(cfg, s)
		if b.MemorySec < b.ComputeSec {
			t.Fatalf("%v: memory %v < compute %v on K=1", cfg, b.MemorySec, b.ComputeSec)
		}
	}
}

func TestDeviceRangeChangesWinners(t *testing.T) {
	// The best configuration for a mid-size GEMM should differ between the
	// desktop and embedded device models (the paper's portability claim).
	s := gemm.Shape{M: 3136, K: 64, N: 256}
	best := func(dev device.Spec) string {
		m := New(dev)
		var bestCfg gemm.Config
		bestG := 0.0
		for _, cfg := range gemm.AllConfigs() {
			if g := m.GFLOPS(cfg, s); g > bestG {
				bestG, bestCfg = g, cfg
			}
		}
		return bestCfg.String()
	}
	if best(device.R9Nano()) == best(device.EmbeddedMaliG72()) {
		t.Skip("winners coincide on this shape; acceptable but unexpected")
	}
}

func TestTimeSecondsMatchesPrice(t *testing.T) {
	m := model()
	cfg := gemm.Config{TileRows: 4, TileCols: 2, AccDepth: 4, WG: gemm.WorkGroup{R: 8, C: 16}}
	s := gemm.Shape{M: 100, N: 200, K: 300}
	if m.TimeSeconds(cfg, s) != m.Price(cfg, s).TotalSec {
		t.Fatal("TimeSeconds disagrees with Price")
	}
	if m.GFLOPS(cfg, s) != m.Price(cfg, s).GFLOPS {
		t.Fatal("GFLOPS disagrees with Price")
	}
}

func TestJitterBounded(t *testing.T) {
	m1 := model()
	m2 := model()
	m2.P.JitterFrac = 0
	cfg := gemm.Config{TileRows: 4, TileCols: 4, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}}
	for _, s := range []gemm.Shape{{M: 77, N: 33, K: 190}, {M: 1000, N: 1000, K: 1000}} {
		j := m1.TimeSeconds(cfg, s) / m2.TimeSeconds(cfg, s)
		if j < 1-m1.P.JitterFrac || j > 1+m1.P.JitterFrac {
			t.Fatalf("jitter ratio %v outside ±%v", j, m1.P.JitterFrac)
		}
	}
}

func TestBreakdownString(t *testing.T) {
	m := model()
	b := m.Price(gemm.Config{TileRows: 4, TileCols: 4, AccDepth: 4, WG: gemm.WorkGroup{R: 16, C: 16}},
		gemm.Shape{M: 512, N: 512, K: 512})
	s := b.String()
	for _, want := range []string{"occupancy=", "alu util=", "GFLOP/s", "edge waste"} {
		if !strings.Contains(s, want) {
			t.Fatalf("breakdown string missing %q:\n%s", want, s)
		}
	}
	// The spill note appears only when spilled.
	spilled := New(device.EmbeddedMaliG72()).Price(
		gemm.Config{TileRows: 8, TileCols: 8, AccDepth: 8, WG: gemm.WorkGroup{R: 8, C: 8}},
		gemm.Shape{M: 512, N: 512, K: 512})
	if !strings.Contains(spilled.String(), "REGISTER SPILL") {
		t.Fatal("spill note missing")
	}
	if strings.Contains(s, "REGISTER SPILL") {
		t.Fatal("spill note on non-spilled config")
	}
}
