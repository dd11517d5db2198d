package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Host stamps a result with the machine and build it was measured on.
// Results are comparable only between like hosts.
type Host struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampHost() Host {
	h := Host{NProc: runtime.NumCPU(), CPUModel: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// like reports whether two hosts may be compared: same core count, CPU,
// GOMAXPROCS and Go toolchain. The commit is what a comparison varies.
func (h Host) like(o Host) bool {
	return h.NProc == o.NProc && h.CPUModel == o.CPUModel && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// compareMain prints NEW/BASE for every metric two saved run records
// share, refusing records from unlike hosts or different workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]Record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	base, next := recs[0], recs[1]
	if !base.Host.like(next.Host) {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing unlike hosts:\n  %+v\n  %+v\n", base.Host, next.Host)
		return 3
	}
	if base.Workload != next.Workload || base.Trace != next.Trace || base.Seconds != next.Seconds {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing different runs: %s/trace%d/%ds vs %s/trace%d/%ds\n",
			base.Workload, base.Trace, base.Seconds, next.Workload, next.Trace, next.Seconds)
		return 3
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for n := range base.Result.Metrics {
		if _, ok := next.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %8s  %s\n", "metric", "base", "new", "new/base", "unit")
	for _, n := range names {
		b, x := base.Result.Metrics[n], next.Result.Metrics[n]
		ratio := "-"
		if b.Value != 0 {
			ratio = fmt.Sprintf("%.3f", x.Value/b.Value)
		}
		fmt.Printf("%-34s %14.6g %14.6g %8s  %s\n", n, b.Value, x.Value, ratio, b.Unit)
	}
	return 0
}
