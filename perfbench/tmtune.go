package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// tmScenario is tpcc (standard mix, its own Verifier) with every
// latencyEvery-th operation timed per worker slot.
const (
	tmScenario   = "perfbench-tpcc"
	latencyEvery = 32
	// tmReps is how many autotuned runs tm-tune makes. Each run's tuner
	// takes its own exploration path and some end on a configuration at
	// half the best one's throughput, so tm-tune reports the mean of
	// many runs.
	tmReps = 13
	// After one window per static configuration, the tmTop best are
	// measured tmRecheck more times each and the best configuration is
	// the one with the highest mean, so one lucky window cannot set it.
	tmTop     = 1
	tmRecheck = 3
)

// tmWindows is the number of measured windows of a tm-tune run over a
// space of n configurations.
func tmWindows(n int) int { return tmReps + n + tmTop*tmRecheck }

// opLog holds one worker slot's timed operation latencies (ns). The pad
// keeps neighbouring slots' counters off one cache line.
type opLog struct {
	n   uint64
	lat []int64
	_   [40]byte
}

// timedTPCC wraps the tpcc workload and times a sample of its operations.
type timedTPCC struct {
	workloads.Workload
	slots []opLog
}

func (w *timedTPCC) Op(r workloads.Runner, self int, rng *workloads.Rand) {
	s := &w.slots[self]
	s.n++
	if s.n%latencyEvery != 0 || len(s.lat) == cap(s.lat) {
		w.Workload.Op(r, self, rng)
		return
	}
	t0 := time.Now()
	w.Workload.Op(r, self, rng)
	s.lat = append(s.lat, int64(time.Since(t0)))
}

// Verify runs tpcc's own invariant check.
func (w *timedTPCC) Verify(h *tm.Heap) error {
	v, ok := w.Workload.(workloads.Verifier)
	if !ok {
		return fmt.Errorf("%s: workload has no Verifier", w.Name())
	}
	return v.Verify(h)
}

// latencies drains the logged samples, in ms.
func (w *timedTPCC) latencies() []float64 {
	var out []float64
	for i := range w.slots {
		for _, ns := range w.slots[i].lat {
			out = append(out, ms(ns))
		}
		w.slots[i] = opLog{lat: w.slots[i].lat[:0]}
	}
	return out
}

// registerTimedTPCC registers tmScenario, whose workloads log into the
// returned wrapper's slots.
func registerTimedTPCC(threads int) (*timedTPCC, error) {
	base, ok := scenario.Lookup("tpcc")
	if !ok {
		return nil, fmt.Errorf("scenario tpcc not registered")
	}
	wrap := &timedTPCC{slots: make([]opLog, threads)}
	for i := range wrap.slots {
		wrap.slots[i].lat = make([]int64, 0, 1<<16)
	}
	scenario.Register(scenario.Scenario{
		Name:        tmScenario,
		Family:      base.Family,
		Description: base.Description + " (sampled op latency)",
		Params:      base.Params,
		Make: func(v scenario.Values) (workloads.Workload, error) {
			wl, err := base.Make(v)
			wrap.Workload = wl
			return wrap, err
		},
	})
	return wrap, nil
}

// tmRun is one scenario.Run call's outcome.
type tmRun struct {
	res     scenario.Result
	outside time.Duration // wall time outside the measured window
	lat     []float64
	peakMiB float64 // the process's peak RSS during the run
}

// tmTuneResult holds a tm-tune run: tpcc autotuned tmReps times and
// under every configuration of config.DefaultSpace(threads), each for the
// same window.
type tmTuneResult struct {
	tuned  []tmRun
	static []tmRun
	space  []config.Config
	// procTuned sums the process counters over the autotuned runs.
	procTuned procCounters
}

func runTMTune(seed uint64, threads int, window time.Duration) (*tmTuneResult, error) {
	wrap, err := registerTimedTPCC(threads)
	if err != nil {
		return nil, err
	}
	run := func(spec scenario.RunSpec) (tmRun, error) {
		spec.Scenario, spec.MaxThreads, spec.Duration = tmScenario, threads, window
		resetPeakRSS()
		t0 := time.Now()
		res, err := scenario.Run(spec)
		wall := time.Since(t0)
		if err != nil {
			return tmRun{}, err
		}
		return tmRun{res: res[0], outside: wall - window, lat: wrap.latencies(), peakMiB: peakRSSMiB()}, nil
	}
	// The autotuned and static runs alternate, so a slow spell of the
	// shared host lands on both sides of tuned_vs_best.
	out := &tmTuneResult{space: config.DefaultSpace(threads)}
	for i := 0; i < max(tmReps, len(out.space)); i++ {
		if i < tmReps {
			before := readProc()
			r, err := run(scenario.RunSpec{Seed: seed*tmReps + uint64(i), AutoTune: true})
			if err != nil {
				return nil, err
			}
			out.procTuned = out.procTuned.add(before, readProc())
			out.tuned = append(out.tuned, r)
		}
		if i < len(out.space) {
			r, err := run(scenario.RunSpec{Seed: seed, Configs: []config.Config{out.space[i]}})
			if err != nil {
				return nil, err
			}
			out.static = append(out.static, r)
		}
	}
	first := append([]tmRun(nil), out.static...)
	sort.Slice(first, func(i, j int) bool { return first[i].res.Throughput > first[j].res.Throughput })
	for _, top := range first[:min(tmTop, len(first))] {
		cfg, err := config.Parse(top.res.Config)
		if err != nil {
			return nil, err
		}
		for k := 0; k < tmRecheck; k++ {
			r, err := run(scenario.RunSpec{Seed: seed, Configs: []config.Config{cfg}})
			if err != nil {
				return nil, err
			}
			out.static = append(out.static, r)
		}
	}
	return out, nil
}

// meanTuned is the autotuned runs' mean throughput.
func (t *tmTuneResult) meanTuned() float64 {
	sum := 0.0
	for _, r := range t.tuned {
		sum += r.res.Throughput
	}
	return sum / float64(len(t.tuned))
}

// staticMeans is each static configuration's mean throughput.
func (t *tmTuneResult) staticMeans() map[string]float64 {
	by := map[string][]float64{}
	for _, r := range t.static {
		by[r.res.Config] = append(by[r.res.Config], r.res.Throughput)
	}
	out := map[string]float64{}
	for cfg, xs := range by {
		out[cfg] = mean(xs)
	}
	return out
}

// best returns the highest static mean throughput.
func (t *tmTuneResult) best() float64 {
	b := 0.0
	for _, v := range t.staticMeans() {
		b = max(b, v)
	}
	return b
}

// rank is the 1-based rank of cfg's static mean throughput in the
// sweep (one past the last when cfg was not swept).
func (t *tmTuneResult) rank(cfg string) float64 {
	meds := t.staticMeans()
	own, ok := meds[cfg]
	if !ok {
		return float64(len(meds) + 1)
	}
	rank := 1
	for _, v := range meds {
		if v > own {
			rank++
		}
	}
	return float64(rank)
}

// staticP50 is the median over the static configurations (their first
// windows) of each one's median operation latency, in ms. The autotuned
// runs' own medians swing with the thread count each tuner ends on, so
// the latency metric is taken across the configuration space instead.
func (t *tmTuneResult) staticP50() float64 {
	var p50s []float64
	for _, r := range t.static[:len(t.space)] {
		p50s = append(p50s, quantile(r.lat, 0.5))
	}
	return median(p50s)
}

// setupTimes returns every run's time outside its measured window, in s.
func (t *tmTuneResult) setupTimes() []float64 {
	var xs []float64
	for _, r := range append(append([]tmRun(nil), t.tuned...), t.static...) {
		xs = append(xs, r.outside.Seconds())
	}
	return xs
}

// timelineView summarizes an autotuned run's KPI timeline: the share of
// samples taken while exploring and how many times the installed
// (non-exploring) configuration changed.
func timelineView(samples []scenario.Sample) (exploreShare float64, reconfigs int) {
	exploring, last := 0, ""
	for _, s := range samples {
		if s.Exploring {
			exploring++
			continue
		}
		if last != "" && s.Config != last {
			reconfigs++
		}
		last = s.Config
	}
	if len(samples) > 0 {
		exploreShare = float64(exploring) / float64(len(samples))
	}
	return exploreShare, reconfigs
}
