// Command search compares the intelligent parameter-search strategies the
// paper's conclusion calls for against brute force, on a configuration
// space too large to benchmark exhaustively in practice.
//
// Usage:
//
//	search [-shape 12544x576x128] [-space default|extended] [-seed 7] [-device r9nano|gen9|mali]
//	       [-workers N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/search"
	"kernelselect/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "search: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs every strategy against brute force and writes the
// comparison table to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	shapeStr := fs.String("shape", "12544x576x128", "GEMM shape as MxKxN")
	spaceName := fs.String("space", "extended", "configuration space: default (640) or extended (~18k)")
	seed := fs.Uint64("seed", 7, "search seed")
	devName := fs.String("device", "r9nano", "device model: r9nano, gen9 or mali")
	workers := fs.Int("workers", 0, "concurrent candidate evaluations (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var m, k, n int
	if _, err := fmt.Sscanf(*shapeStr, "%dx%dx%d", &m, &k, &n); err != nil {
		return fmt.Errorf("bad -shape %q: %v", *shapeStr, err)
	}
	shape := gemm.Shape{M: m, K: k, N: n}
	if err := shape.Validate(); err != nil {
		return err
	}

	var sp search.Space
	switch *spaceName {
	case "default":
		sp = search.DefaultSpace()
	case "extended":
		sp = search.ExtendedSpace()
	default:
		return fmt.Errorf("unknown space %q", *spaceName)
	}

	var dev device.Spec
	switch *devName {
	case "r9nano":
		dev = device.R9Nano()
	case "gen9":
		dev = device.IntegratedGen9()
	case "mali":
		dev = device.EmbeddedMaliG72()
	default:
		return fmt.Errorf("unknown device %q", *devName)
	}

	model := sim.New(dev)
	obj := func(c gemm.Config) float64 { return model.GFLOPS(c, shape) }

	// The model objective is thread-safe, so resolve 0 to the full machine
	// here; search.Options itself treats 0 as sequential to stay safe for
	// arbitrary objectives.
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	opts := search.Options{Workers: w}

	fmt.Fprintf(out, "shape %v on %s, space %s (%d configurations), %d workers\n\n", shape, dev.Name, *spaceName, sp.Size(), w)
	exact := search.BruteForce(sp, obj, opts)
	fmt.Fprintf(out, "%-14s %10s %12s %10s %s\n", "strategy", "evals", "best GF/s", "% of opt", "best config")
	report := func(name string, r search.Result) {
		fmt.Fprintf(out, "%-14s %10d %12.0f %9.1f%% %s\n",
			name, r.Evaluations, r.BestScore, 100*r.BestScore/exact.BestScore, r.Best)
	}
	report("brute-force", exact)
	report("random", search.RandomSearch(sp, obj, 400, *seed, opts))
	report("hill-climb", search.HillClimb(sp, obj, 12, *seed, opts))
	report("basin-hopping", search.BasinHopping(sp, obj, 20, 0.1, *seed, opts))
	report("genetic", search.Genetic(sp, obj, search.GeneticOptions{Seed: *seed, Generations: 30, Workers: w}))
	return nil
}
