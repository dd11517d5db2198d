package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
)

// metricDef names a metric and its unit. A per-layer metric's layer is
// the part of its name before the first dot.
type metricDef struct{ name, unit string }

// The metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"p50_ms", "ms"},
	{"mem_mb", "MiB"}, {"tuned_vs_best", "ratio"},
}

var perLayer = []metricDef{
	{"client.get.p50_ms", "ms"}, {"client.get.p99_ms", "ms"},
	{"client.put.p50_ms", "ms"}, {"client.put.p99_ms", "ms"},
	{"client.mput.p50_ms", "ms"}, {"client.mput.p99_ms", "ms"},
	{"client.range.p50_ms", "ms"}, {"client.range.p99_ms", "ms"},
	{"client.p50_ms", "ms"}, {"client.p99_ms", "ms"},
	{"client.late_ms.p99", "ms"}, {"client.fail_share", "ratio"},
	{"net.self_us.p50", "us"}, {"net.self_us.p99", "us"},
	{"serve.handler_us.get.p50", "us"}, {"serve.handler_us.get.p99", "us"},
	{"serve.handler_us.mput.p50", "us"}, {"serve.handler_us.mput.p99", "us"},
	{"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.p99", "ms"},
	{"serve.service_ms.p50", "ms"}, {"serve.service_ms.p99", "ms"},
	{"serve.requeued_per_kop", "1/kop"}, {"serve.fenced_requeues_per_kop", "1/kop"},
	{"serve.cross_abort_ratio", "ratio"}, {"serve.cross_backoff_ms", "ms"},
	{"serve.rejected_share", "ratio"}, {"serve.group_commits", "count"},
	{"store.get_ns", "ns"}, {"store.put_ns", "ns"}, {"store.range256_ns", "ns"},
	{"shard.owner_ns", "ns"}, {"shard.owners_in_range_ns", "ns"},
	{"tm.txn_ns.tl2", "ns"}, {"tm.txn_ns.tiny", "ns"}, {"tm.txn_ns.norec", "ns"},
	{"tm.txn_ns.swiss", "ns"}, {"tm.txn_ns.htm", "ns"}, {"tm.txn_ns.gl", "ns"},
	{"tm.abort_ratio", "ratio"},
	{"polytm.txn_ns", "ns"}, {"polytm.overhead", "ratio"}, {"proteustm.atomic_ns", "ns"},
	{"rectm.phases", "count"}, {"rectm.reconfigs", "count"},
	{"rectm.explore_share", "ratio"}, {"rectm.final_rank", "rank"},
	{"proc.allocs_per_op", "count"}, {"proc.bytes_per_op", "B"},
	{"proc.cpu_us_per_op", "us"}, {"proc.gc_per_kop", "1/kop"},
	{"trace.overhead", "ratio"},
}

// result packages measured values as the metrics of the run's kind. An
// end-to-end run must have measured every end-to-end metric; a traced
// run reports 0 for a layer metric the workload never exercises (no
// mput on kv-point, no HTTP on tm-tune).
func result(trace int, vals map[string]float64, attempted, failed uint64, correct bool) (*Result, error) {
	res := &Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	if trace == 0 {
		var missing []string
		for _, m := range endToEnd {
			v, ok := vals[m.name]
			if !ok {
				missing = append(missing, m.name)
			}
			res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
		}
		if len(missing) > 0 {
			return nil, fmt.Errorf("unmeasured end-to-end metrics: %s", strings.Join(missing, ", "))
		}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// procCounters snapshots the process-wide costs the proc layer reports.
type procCounters struct {
	mallocs, bytes uint64
	gcs            uint32
	cpu            time.Duration
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, cpu: cpuTime()}
}

// add returns p plus the counters' growth from before to after.
func (p procCounters) add(before, after procCounters) procCounters {
	return procCounters{
		mallocs: p.mallocs + after.mallocs - before.mallocs,
		bytes:   p.bytes + after.bytes - before.bytes,
		gcs:     p.gcs + after.gcs - before.gcs,
		cpu:     p.cpu + after.cpu - before.cpu,
	}
}

// perOp records the proc metrics of the ops completed between two
// snapshots.
func (p procCounters) perOp(to procCounters, ops uint64, vals map[string]float64) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	vals["proc.allocs_per_op"] = float64(to.mallocs-p.mallocs) / n
	vals["proc.bytes_per_op"] = float64(to.bytes-p.bytes) / n
	vals["proc.cpu_us_per_op"] = float64((to.cpu - p.cpu).Microseconds()) / n
	vals["proc.gc_per_kop"] = float64(to.gcs-p.gcs) * 1000 / n
}

// Phase lengths of a kv run.
const (
	// kvBoots is how many fresh servers an end-to-end run boots. Each
	// runs a closed loop and then an open loop after its warm-up, so
	// set-up, memory and the tuners' exploration paths, which differ
	// between boots, are each sampled kvBoots times.
	kvBoots  = 3
	kvWarmup = 1500 * time.Millisecond
	// kvClosedShare is the closed loops' share of --seconds; the open
	// loops get the rest.
	kvClosedShare = 0.7
	// A traced run boots once, runs the layer ladder, then splits the
	// rest of --seconds into an untraced closed loop, a traced closed
	// loop (kvTracedClosedShare each) and a traced open loop.
	kvTracedClosedShare = 0.25
	// statWindow is the window an open loop's median latency is taken
	// over before the median across windows.
	statWindow = 500 * time.Millisecond
)

func runKV(spec KVSpec, o options, nproc int) (*Result, error) {
	b, err := newKVBench(spec, o.seed, nproc)
	if err != nil {
		return nil, err
	}
	b.traced = o.trace == 1
	total := time.Duration(o.seconds) * time.Second
	vals := map[string]float64{}
	if b.traced {
		err = b.tracedRun(spec, o, nproc, total, vals)
	} else {
		err = b.endToEndRun(spec, total, vals)
	}
	if err != nil {
		return nil, err
	}
	vals["client.fail_share"] = float64(b.failed) / float64(b.attempted)
	for _, w := range b.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
	}
	return result(o.trace, vals, b.attempted, b.failed, len(b.wrong) == 0)
}

// withServer boots a server, warms it up, runs fn against it, takes the
// census and stops the server. It returns the set-up time and the peak
// RSS while the server ran. b.booted marks the tuners' state right after the
// boot, before the warm-up traffic makes them explore.
func (b *kvBench) withServer(fn func() error) (setup, peak float64, err error) {
	resetPeakRSS()
	if setup, err = b.boot(); err != nil {
		return 0, 0, err
	}
	defer func() {
		if rerr := b.release(); err == nil {
			err = rerr
		}
	}()
	b.booted = b.tunerMark()
	if _, err = b.closedLoop(kvWarmup); err != nil {
		return 0, 0, err
	}
	if err = fn(); err != nil {
		return 0, 0, err
	}
	if err = b.census(); err != nil {
		return 0, 0, err
	}
	return setup, peakRSSMiB(), nil
}

func (b *kvBench) endToEndRun(spec KVSpec, total time.Duration, vals map[string]float64) error {
	closedDur := time.Duration(float64(total) * kvClosedShare / kvBoots)
	openDur := total/kvBoots - closedDur
	var setups, peaks, tuned, p50s []float64
	var ops uint64
	var elapsed time.Duration
	for i := 0; i < kvBoots; i++ {
		setup, peak, err := b.withServer(func() error {
			closed, err := b.closedLoop(closedDur)
			if err != nil {
				return err
			}
			ops, elapsed = ops+closed.ops, elapsed+closed.elapsed
			tuned = append(tuned, b.tuner(b.booted, b.tunerMark()).tunedVsBest)
			open, err := b.openLoop(openDur, spec.Rate)
			if err != nil {
				return err
			}
			p50s = append(p50s, windowedP50(open.samples, statWindow))
			return nil
		})
		if err != nil {
			return err
		}
		setups, peaks = append(setups, setup), append(peaks, peak)
	}
	vals["setup_s"] = median(setups)
	vals["mem_mb"] = median(peaks)
	vals["ops_per_s"] = float64(ops) / elapsed.Seconds()
	vals["p50_ms"] = median(p50s)
	vals["tuned_vs_best"] = median(tuned)
	return nil
}

func (b *kvBench) tracedRun(spec KVSpec, o options, nproc int, total time.Duration, vals map[string]float64) error {
	// The ladder runs before the server boots, so nothing else competes
	// with it.
	t0 := time.Now()
	lv, err := ladder(spec, ladderKeys(b.ops), nproc)
	if err != nil {
		return err
	}
	for k, v := range lv {
		vals[k] = v
	}
	rest := total - time.Since(t0)
	if rest < 3*time.Second {
		return fmt.Errorf("--seconds %d leaves no time after the layer ladder", o.seconds)
	}
	_, _, err = b.withServer(func() error {
		closedDur := time.Duration(float64(rest) * kvTracedClosedShare)
		from := b.tunerMark()
		before := b.srv.StatusSnapshot()
		p0 := readProc()
		plain, err := b.closedLoop(closedDur)
		if err != nil {
			return err
		}
		p0.perOp(readProc(), plain.ops, vals)
		b.tracing = true
		traced, err := b.closedLoop(closedDur)
		if err != nil {
			return err
		}
		mid := b.srv.StatusSnapshot()
		open, err := b.openLoop(rest-2*closedDur, spec.Rate)
		b.tracing = false
		if err != nil {
			return err
		}
		after := b.srv.StatusSnapshot()
		tv := b.tuner(from, b.tunerMark())
		if t := traced.rate(); t > 0 {
			vals["trace.overhead"] = plain.rate() / t
		}
		for _, k := range []Kind{Get, Put, MPut, Range} {
			vals["client."+k.String()+".p50_ms"], vals["client."+k.String()+".p99_ms"] = latencies(open.samples, k)
		}
		vals["client.p50_ms"], vals["client.p99_ms"] = latencies(open.samples)
		var late []float64
		for _, s := range open.samples {
			late = append(late, ms(s.late))
		}
		vals["client.late_ms.p99"] = quantile(late, 0.99)
		spanMetrics(b.tr, vals)
		statusMetrics(before, mid, after, vals)
		vals["rectm.reconfigs"] = float64(tv.reconfigs)
		vals["rectm.explore_share"] = tv.exploreShare
		vals["rectm.final_rank"] = tv.finalRank
		return b.tr.write(filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.tsv.gz", spec.Name, o.seed)))
	})
	return err
}

// ladderKeys takes the point keys of the first connection's sequence.
func ladderKeys(ops [][]Op) []uint64 {
	var keys []uint64
	for _, op := range ops[0] {
		if op.Kind != MPut && op.Kind != Range {
			keys = append(keys, op.Key)
		}
	}
	return keys
}

// spanMetrics derives the net and serve.handler metrics from the spans:
// the handler's time by request kind, and the socket and net/http time as
// the client span's self time.
func spanMetrics(t *tracer, vals map[string]float64) {
	children := t.link()
	handler := map[Kind][]float64{}
	var self []float64
	for i, s := range t.spans {
		if s.Name != "client.request" {
			continue
		}
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		self = append(self, float64(selfTime(s, kids))/1e3)
		for _, k := range kids {
			handler[s.Kind] = append(handler[s.Kind], float64(k.End-k.Start)/1e3)
		}
	}
	vals["net.self_us.p50"], vals["net.self_us.p99"] = quantile(self, 0.5), quantile(self, 0.99)
	for _, k := range []Kind{Get, MPut} {
		xs := handler[k]
		vals["serve.handler_us."+k.String()+".p50"], vals["serve.handler_us."+k.String()+".p99"] = quantile(xs, 0.5), quantile(xs, 0.99)
	}
}

// statusMetrics derives the serve, tm and rectm counters from
// StatusSnapshot deltas over the traced run; the latency reservoirs are
// read at the end of the traced closed loop (mid).
func statusMetrics(before, mid, after serve.Status, vals map[string]float64) {
	ops := float64(after.Ops.Total - before.Ops.Total)
	if ops == 0 {
		return
	}
	vals["serve.queue_wait_ms.p50"], vals["serve.queue_wait_ms.p99"] = mid.QueueWait.P50, mid.QueueWait.P99
	vals["serve.service_ms.p50"], vals["serve.service_ms.p99"] = mid.Service.P50, mid.Service.P99
	vals["serve.requeued_per_kop"] = float64(after.Ops.Requeued-before.Ops.Requeued) * 1000 / ops
	vals["serve.fenced_requeues_per_kop"] = float64(after.Ops.Fenced-before.Ops.Fenced) * 1000 / ops
	if cross := after.Ops.CrossOps - before.Ops.CrossOps; cross > 0 {
		vals["serve.cross_abort_ratio"] = float64(after.Ops.CrossAborts-before.Ops.CrossAborts) / float64(cross)
	}
	vals["serve.cross_backoff_ms"] = after.Ops.CrossBackoffMs - before.Ops.CrossBackoffMs
	vals["serve.rejected_share"] = float64(after.Ops.Rejected-before.Ops.Rejected) / ops
	vals["serve.group_commits"] = float64(after.Ops.GroupCommits - before.Ops.GroupCommits)
	commits := after.TM.Commits - before.TM.Commits
	if att := commits + after.TM.Aborts - before.TM.Aborts; att > 0 {
		vals["tm.abort_ratio"] = float64(after.TM.Aborts-before.TM.Aborts) / float64(att)
	}
	vals["rectm.phases"] = float64(after.Config.Phases - before.Config.Phases)
}

func runTM(o options, nproc int) (*Result, error) {
	total := time.Duration(o.seconds) * time.Second
	vals := map[string]float64{}
	if o.trace == 1 {
		t0 := time.Now()
		spec := kvSpecs["kv-point"]
		ops, err := genOps(spec, o.seed, 0, 1, opsPerConn)
		if err != nil {
			return nil, err
		}
		lv, err := ladder(spec, ladderKeys([][]Op{ops}), nproc)
		if err != nil {
			return nil, err
		}
		for k, v := range lv {
			vals[k] = v
		}
		total -= time.Since(t0)
	}
	window := total / time.Duration(tmWindows(len(config.DefaultSpace(nproc))))
	if window < 100*time.Millisecond {
		return nil, errors.New("--seconds too short for tm-tune's windows")
	}
	tr, err := runTMTune(o.seed, nproc, window)
	if err != nil {
		return nil, err // includes a failed Verify
	}
	// Every tuner metric is a mean over the autotuned runs.
	var tunedOps uint64
	var peaks, aborts, phases, shares, reconfigs, ranks []float64
	for _, r := range tr.tuned {
		tunedOps += r.res.Ops
		peaks = append(peaks, r.peakMiB)
		aborts = append(aborts, r.res.AbortRate)
		phases = append(phases, float64(r.res.Phases))
		share, n := timelineView(r.res.Samples)
		shares, reconfigs = append(shares, share), append(reconfigs, float64(n))
		ranks = append(ranks, tr.rank(r.res.FinalConfig))
	}
	procCounters{}.perOp(tr.procTuned, tunedOps, vals)
	vals["setup_s"] = median(tr.setupTimes())
	vals["ops_per_s"] = tr.meanTuned()
	vals["p50_ms"] = tr.staticP50()
	vals["mem_mb"] = median(peaks)
	if best := tr.best(); best > 0 {
		vals["tuned_vs_best"] = tr.meanTuned() / best
	}
	vals["tm.abort_ratio"] = mean(aborts)
	vals["rectm.phases"] = mean(phases)
	vals["rectm.explore_share"] = mean(shares)
	vals["rectm.reconfigs"] = mean(reconfigs)
	vals["rectm.final_rank"] = mean(ranks)
	vals["trace.overhead"] = 1
	var attempted uint64
	for _, r := range append(append([]tmRun(nil), tr.tuned...), tr.static...) {
		attempted += r.res.Ops
	}
	return result(o.trace, vals, attempted, 0, true)
}
