// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload with a seed for a fixed time and
// prints, as its last line of output, one JSON object with the
// correctness verdict, the attempted and failed operation counts, and
// the metrics: the end-to-end metrics of an untraced run (--trace 0) or
// the per-layer metrics of a traced run (--trace 1).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kv-point --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare BASE.json NEW.json
//
// The workloads and metrics are described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is what a run saves next to its spans: the result plus the
// host and run parameters it was measured under.
type Record struct {
	Host     Host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   Result `json:"result"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	outDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: kv-point, kv-cross or tm-tune")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for span files and run records")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := setBenchTime(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	host := stampHost()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := Record{Host: host, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Result: *res}
	path := filepath.Join(o.outDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(map[string]Host{"host": host}) //nolint:errcheck // plain struct
	fmt.Println(string(hostLine))
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// defaultOutDir is where run.sh builds ($CARGO_TARGET_DIR, else
// .bench_build, both relative to the repository root it runs from), so
// outputs stay with the build.
func defaultOutDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

func run(o options) (*Result, error) {
	nproc := runtime.NumCPU()
	if spec, ok := kvSpecs[o.workload]; ok {
		return runKV(spec, o, nproc)
	}
	if o.workload == "tm-tune" {
		return runTM(o, nproc)
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-point, kv-cross or tm-tune)", o.workload)
}

// printMetrics writes every metric by name with its unit to stderr.
func printMetrics(res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
