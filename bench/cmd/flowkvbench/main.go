// Command flowkvbench runs the FlowKV benchmark: four NEXMark state
// workloads, end-to-end metrics checked against an oracle, and a traced
// run that measures every layer from outside.
//
//	go -C bench run ./cmd/flowkvbench -workload all -seed 1 -out out
//
// Run as BENCHMARK.json describes (one workload, -trace 0 or 1) the last
// line of standard output is the result object the benchmark contract
// asks for.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"flowkv/bench"
)

func main() {
	var (
		workload    = flag.String("workload", "all", "workload name, or all")
		seed        = flag.Int64("seed", 1, "input seed")
		seconds     = flag.Float64("seconds", 20, "measuring time per workload on the reference host (half closed loop, half paced)")
		trace       = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, span files, the ladder")
		ladder      = flag.Bool("ladder", false, "with -trace 1: full-size ladder (200000 ops, 5 repeats)")
		ablate      = flag.Bool("ablate", false, "with -trace 1: resilience-cost ablation on rmw_session_job")
		quick       = flag.Bool("quick", false, "smoke run: 1.5 s per workload over a small block")
		out         = flag.String("out", filepath.Join("bench", "out"), "output directory (state lives under <out>/state)")
		compare     = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		printJSON   = flag.Bool("benchmark-json", false, "print the BENCHMARK.json that describes this benchmark and exit")
		writeGolden = flag.String("write-golden", "", "recompute the golden digests over the inmem backend and write them to this file")
	)
	flag.Parse()

	// One process on at most four cores, as the load shape fixes.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	cfg := bench.Config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *out, FullLadder: *ladder, Log: os.Stderr}
	if *quick {
		cfg = bench.QuickConfig(cfg)
	}

	switch {
	case *printJSON:
		b, err := bench.BenchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: flowkvbench -compare A.json B.json"))
		}
		worse, err := bench.Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	case *writeGolden != "":
		def := bench.Config{Seed: 1}
		if err := bench.WriteGolden(*writeGolden, []bench.Config{def, bench.QuickConfig(def)}); err != nil {
			fatal(err)
		}
		return
	}

	workloads := bench.Workloads
	if *workload != "all" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		workloads = []*bench.Workload{w}
	}
	rep, err := bench.Run(workloads, cfg, *ablate)
	if err != nil {
		fatal(err)
	}
	for _, r := range rep.Workloads {
		r.Print(os.Stdout)
	}
	bench.PrintAblation(os.Stdout, rep.Ablation)
	if err := bench.WriteOutputs(*out, rep); err != nil {
		fatal(err)
	}
	last := rep.Workloads[len(rep.Workloads)-1]
	line, err := bench.ContractLine(last)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	for _, r := range rep.Workloads {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "flowkvbench: %s: results differ from the oracle\n", r.Workload)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowkvbench:", err)
	os.Exit(2)
}
