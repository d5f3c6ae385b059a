// Command perfbench is the serving-stack benchmark: it runs the store,
// avrd handlers and router in-process on loopback listeners, drives them
// open-loop with Poisson arrivals from a seeded generator, checks every
// answer against the generator's ground truth, and prints end-to-end
// metrics (--trace 0) or per-layer metrics from wrapped entry points
// (--trace 1). See README.md for the workloads and metric definitions.
//
//	perfbench --workload hot-read --seed 1 --seconds 20 --trace 0
//	perfbench --workload cold-routed --seed 1 --seconds 20 --repeat 10
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exit status is 1 on a correctness violation and 2 on any other error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// epoch is the clock every span and interval is measured on.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "workload seed: the data set and arrival schedule derive from it")
	secs := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for store data and span files")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) in child processes and print each metric's median and quartiles")
	holdout := flag.Int64("holdout", 0, "with --repeat: one more run at this seed, compared against the repeat medians and BENCHMARK.json bounds")
	flag.Parse()

	w, ok := workloadsByName[*wl]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadOrder)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*wl, *seed, *secs, *traced, *repeat, *holdout, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}

	fmt.Println(w.describe(runtime.GOMAXPROCS(0)))
	res, err := runWorkload(w, *seed, *secs, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(res.samples) > 0 {
		fmt.Println("latency samples:", strings.Join(res.samples, " "))
	}
	for _, f := range res.flags {
		fmt.Println("FLAG", f)
	}
	for _, p := range res.problems {
		fmt.Println("VIOLATION", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
