// Command experiments regenerates every figure and table of the paper's
// evaluation section from fixed seeds and prints them as text tables.
//
// Usage:
//
//	experiments [-only fig1|fig2|fig3|fig4|table1|latency|importance|ablations|portability]
//	            [-device r9nano|gen9|mali] [-seed 42] [-md REPORT.md] [-svg figures]
//	            [-workers N] [-portability] [-emit-unified lib.json] [-bench-json out.json]
//
// -portability adds the cross-device transfer study (all three devices) to
// the output: a text/markdown section with the transfer matrices, the
// unified and joint-pruned rows, the held-out synthetic-device
// generalization table, and, with -svg, fig5-portability.svg.
// -emit-unified additionally persists the study's unified library as the
// artifact selectd -unified and selectgen -library consume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/device"
	"kernelselect/internal/experiments"
	"kernelselect/internal/portability"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	only := flag.String("only", "", "run a single experiment: fig1, fig2, fig3, fig4, table1, latency, importance, ablations or portability")
	devName := flag.String("device", "r9nano", "device model: r9nano, gen9 or mali")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "experiment seed")
	mdPath := flag.String("md", "", "write a full markdown report to this path instead of printing")
	svgDir := flag.String("svg", "", "also render fig1.svg…fig4.svg into this directory")
	workers := flag.Int("workers", 0, "worker pool size for every pipeline stage (0 = GOMAXPROCS)")
	portable := flag.Bool("portability", false, "include the cross-device transfer study (all three devices)")
	emitUnified := flag.String("emit-unified", "", "write the unified (device-feature-augmented) library artifact to this path for selectd -unified")
	benchJSON := flag.String("bench-json", "", "time Setup and RunAll at 1 and N workers, write JSON to this path and exit")
	flag.Parse()

	cfg := experiments.Default()
	cfg.Seed = *seed
	cfg.Workers = *workers
	switch *devName {
	case "r9nano":
		cfg.Device = device.R9Nano()
	case "gen9":
		cfg.Device = device.IntegratedGen9()
	case "mali":
		cfg.Device = device.EmbeddedMaliG72()
	default:
		log.Fatalf("unknown device %q", *devName)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(cfg, *benchJSON); err != nil {
			log.Fatal(err)
		}
		return
	}

	env := experiments.Setup(cfg)
	var portSection string
	if *portable || *only == "portability" || *emitUnified != "" {
		penv := env.PortabilityEnv()
		res := penv.Run()
		portSection = experiments.RenderPortability(res)
		if *svgDir != "" {
			if err := experiments.WritePortabilitySVG(res, *svgDir); err != nil {
				log.Fatal(err)
			}
		}
		if *emitUnified != "" {
			if err := writeUnifiedArtifact(penv, *emitUnified); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote unified library artifact to %s", *emitUnified)
		}
	}
	if *svgDir != "" {
		if err := env.WriteSVGs(*svgDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote figures to %s", *svgDir)
	}
	if *mdPath != "" {
		var extras []string
		if portSection != "" {
			extras = append(extras, portSection)
		}
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteMarkdownReport(f, env, extras...); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *mdPath)
		return
	}
	var names []string
	for n := range env.PerNetwork {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("device: %s, seed: %d\n", cfg.Device.Name, cfg.Seed)
	for _, n := range names {
		fmt.Printf("%-12s %3d shapes (paper: vgg 78, resnet 66, mobilenet 26)\n", n, env.PerNetwork[n])
	}
	fmt.Printf("union: %d shapes, split %d train / %d test (paper: 170 = 136 + 34)\n\n",
		env.Dataset.NumShapes(), env.Train.NumShapes(), env.Test.NumShapes())

	run := func(name string, f func() string) {
		if *only != "" && *only != name {
			return
		}
		fmt.Println(f())
	}
	run("fig1", func() string { return experiments.RenderFig1(env.Fig1()) })
	run("fig2", func() string { return experiments.RenderFig2(env.Fig2()) })
	run("fig3", func() string { return experiments.RenderFig3(env.Fig3()) })
	run("fig4", func() string { return experiments.RenderFig4(env.Fig4()) })
	run("table1", func() string { return experiments.RenderTable1(env.Table1()) })
	run("latency", func() string { return experiments.RenderLatency(env.SelectionLatency(8, 200)) })
	run("importance", func() string { return experiments.RenderImportance(env.FeatureImportance(8)) })
	if *only == "ablations" {
		fmt.Println(experiments.RenderAblations(env))
	}
	if portSection != "" {
		fmt.Println(portSection)
	}
}

// writeUnifiedArtifact persists the transfer study's unified library in the
// form selectd -unified and selectgen -library consume.
func writeUnifiedArtifact(penv *portability.Env, path string) error {
	lib, err := penv.BuildUnifiedLibrary()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.SaveUnifiedLibrary(f, lib, penv.DeviceNames()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchEntry is one machine-readable timing sample.
type benchEntry struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// benchReport is the -bench-json payload.
type benchReport struct {
	Device             string       `json:"device"`
	Seed               uint64       `json:"seed"`
	GOMAXPROCS         int          `json:"gomaxprocs"`
	RunAllSpeedup      float64      `json:"runall_speedup"`
	PortabilitySpeedup float64      `json:"portability_speedup"`
	Entries            []benchEntry `json:"entries"`
}

// writeBenchJSON times Setup once and RunAll at 1 worker and at the
// configured pool size on the same environment, then writes the samples as
// JSON. Setup prices the datasets and RunAll prices nothing, so the two
// timings isolate the worker-pool effect.
func writeBenchJSON(cfg experiments.Config, path string) error {
	// Open the output before measuring so a bad path fails in milliseconds,
	// not after the benchmark runs.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	rep := benchReport{Device: cfg.Device.Name, Seed: cfg.Seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var env *experiments.Env
	measure := func(name string, workers int, f func()) float64 {
		start := time.Now()
		f()
		sec := time.Since(start).Seconds()
		rep.Entries = append(rep.Entries, benchEntry{Name: name, Workers: workers, Seconds: sec})
		log.Printf("%-12s workers=%-3d %8.3fs", name, workers, sec)
		return sec
	}
	measure("setup", n, func() { env = experiments.Setup(cfg) })
	env.Cfg.Workers = 1
	seq := measure("runall", 1, func() { env.RunAll() })
	env.Cfg.Workers = n
	par := measure("runall", n, func() { env.RunAll() })
	if par > 0 {
		rep.RunAllSpeedup = seq / par
	}
	log.Printf("runall speedup at %d workers: %.2fx", n, rep.RunAllSpeedup)

	// Portability: Setup prices all three devices (cold caches, n workers),
	// then the transfer grid runs warm at 1 worker and at n.
	var pe *portability.Env
	measure("port-setup", n, func() {
		pe = portability.Setup(portability.Config{Seed: cfg.Seed, Workers: n})
	})
	pe.Cfg.Workers = 1
	seqP := measure("portability", 1, func() { pe.Run() })
	pe.Cfg.Workers = n
	parP := measure("portability", n, func() { pe.Run() })
	if parP > 0 {
		rep.PortabilitySpeedup = seqP / parP
	}
	log.Printf("portability speedup at %d workers: %.2fx", n, rep.PortabilitySpeedup)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if _, err := f.Write(append(out, '\n')); err != nil {
		return err
	}
	return f.Close()
}
