// Command perfbench is the repository's benchmark. It runs one named
// workload of the R-Opus planner for a fixed time, checks that the
// outputs are correct, and prints the end-to-end metrics (with --trace 1,
// the per-layer breakdown instead) as one JSON object on the last line
// of standard output:
//
//	bash perfbench/run.sh --workload table1 --seed 42 --seconds 20 --trace 0
//
// Human-readable lines (host facts, every metric by name with its unit,
// and any failed check) come first. With --out DIR a run also writes its
// full result, and a traced run its spans as a Chrome trace, into DIR.
// The command exits non-zero when any operation fails or any check does
// not hold. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner and the reason it is
// in the benchmark.
var workloads = map[string]struct {
	why string
	run func(context.Context, options) *result
}{
	"table1": {"six-case Table-1 consolidation: cold GA evaluation and long-trace aggregate/search",
		func(ctx context.Context, o options) *result { return runBatch(ctx, &table1{}, o) }},
	"failover": {"consolidation plus single-server failure sweep: evaluations mostly hit the shared cache",
		func(ctx context.Context, o options) *result { return runBatch(ctx, &failover{}, o) }},
	"fleet-1k": {"1000-app hierarchical plan from CSV: partitioning and parallel sub-pool solves",
		func(ctx context.Context, o options) *result { return runBatch(ctx, &fleet1k{}, o) }},
	"serve-mix": {"closed-loop planning service: HTTP, CSV ingest, admission, leases and state writes",
		runServe},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1, failover, fleet-1k or serve-mix")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's GA seeds and generated jobs")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", "", "directory to write the full result and the span trace into (optional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload table1|failover|fleet-1k|serve-mix, --seconds >= 0 and --trace 0|1\n")
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, minPasses: 3}
	host := readHostFacts(o.seed)
	r := w.run(context.Background(), o)
	return printResult(stdout, stderr, o, host, r, *out)
}

// metricValue is one metric of the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the run and returns the exit code.
func printResult(stdout, stderr io.Writer, o options, host hostFacts, r *result, outDir string) int {
	defs, values := endToEnd, r.e2e
	if o.trace {
		defs, values = perLayer, r.layers
	}
	line := resultLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%.0f trace=%v: %s\n", o.workload, o.seed, o.seconds.Seconds(), o.trace, workloads[o.workload].why)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit)
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	errorFrac := 0.0
	if r.attempted > 0 {
		errorFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %s\n", "error_frac", errorFrac, "ratio")
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "# %s = %g\n", k, r.info[k])
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "# FAILED: %s\n", p)
	}
	if outDir != "" {
		if err := writeOutputs(outDir, o, host, line, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct || r.attempted == 0 {
		return 1
	}
	return 0
}

// writeOutputs writes the full result (host facts, every metric, every
// problem) and, for a traced run, the Chrome trace of the benchmark's
// spans into dir.
func writeOutputs(dir string, o options, host hostFacts, line resultLine, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	doc := struct {
		Workload string             `json:"workload"`
		Seconds  float64            `json:"seconds"`
		Host     hostFacts          `json:"host"`
		Result   resultLine         `json:"result"`
		Info     map[string]float64 `json:"info"`
		Problems []string           `json:"problems"`
	}{o.workload, o.seconds.Seconds(), host, line, r.info, r.problems}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer == nil {
		return nil
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
