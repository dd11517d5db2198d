package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// The kv workloads. Both preload 16384 keys and leave every other server
// setting at cmd/proteusd's flag defaults (autotune on, group commit off,
// shard-granularity fences).
var kvSpecs = map[string]KVSpec{
	"kv-point": {Name: "kv-point", Shards: 1, Partitioner: "hash", Keys: 16384, Mix: "read-heavy", Rate: 16000},
	"kv-cross": {Name: "kv-cross", Shards: 4, Partitioner: "range", Keys: 16384, Mix: "write-heavy", MPutFrac: 0.2, RangeFrac: 0.1, Rate: 8000},
}

// opsPerConn is the length of each connection's generated sequence; the
// closed loop wraps around it.
const opsPerConn = 1 << 16

// tunerSeed is cmd/proteusd's --seed default.
const tunerSeed = 42

// kvBench holds one kv run: the generated inputs, the connections' models
// and the in-process server.
type kvBench struct {
	spec   KVSpec
	conns  int
	ops    [][]Op
	models []*model
	cursor []int

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	addr    string
	started time.Time // just before serve.New; the spans' time base
	tr      *tracer   // receives spans while tracing is on
	traced  bool      // the handler is wrapped in a serve.handler span
	tracing bool      // requests carry request ids and record spans
	nextReq uint64
	booted  tunerMark

	attempted, failed uint64
	wrong             []string
}

func newKVBench(spec KVSpec, seed uint64, conns int) (*kvBench, error) {
	b := &kvBench{spec: spec, conns: conns, ops: make([][]Op, conns), models: make([]*model, conns), cursor: make([]int, conns)}
	for c := 0; c < conns; c++ {
		ops, err := genOps(spec, seed, c, conns, opsPerConn)
		if err != nil {
			return nil, err
		}
		b.ops[c], b.models[c] = ops, newModel(spec.Keys)
	}
	return b, nil
}

// start boots the server exactly as cmd/proteusd's main does and returns
// the time from serve.New until /healthz answers.
func (b *kvBench) start() (time.Duration, error) {
	b.started = time.Now()
	srv, err := serve.New(serve.Options{
		Shards:       b.spec.Shards,
		Partitioner:  b.spec.Partitioner,
		KeyUniverse:  b.spec.Keys,
		Preload:      int(b.spec.Keys),
		AutoTune:     true,
		SamplePeriod: 100 * time.Millisecond,
		Seed:         tunerSeed,
	})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return 0, err
	}
	b.srv, b.addr = srv, ln.Addr().String()
	b.tr = newTracer(b.started)
	b.hs = &http.Server{Handler: srv}
	if b.traced {
		b.hs.Handler = b.tr.handler(srv)
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	if err := waitHealthy(b.addr, time.Now().Add(30*time.Second)); err != nil {
		b.stop() //nolint:errcheck // already failing
		return 0, err
	}
	return time.Since(b.started), nil
}

// stop shuts the HTTP server and the serving layer down and waits for
// both.
func (b *kvBench) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := b.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// boot resets every connection's model and sequence to the preloaded
// state, starts a fresh server and returns its set-up time in seconds.
func (b *kvBench) boot() (float64, error) {
	for c := range b.models {
		b.models[c], b.cursor[c] = newModel(b.spec.Keys), 0
	}
	d, err := b.start()
	return d.Seconds(), err
}

// release stops the server and returns its memory to the OS, so the next
// boot starts from the same footprint.
func (b *kvBench) release() error {
	err := b.stop()
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// sample is one completed request.
type sample struct {
	kind      Kind
	at        int64 // due time, ns since the segment started
	lat, late int64 // ns from due time to reply, and from due time to send
}

// segment is the outcome of one load segment.
type segment struct {
	ops     uint64 // requests completed within the segment
	elapsed time.Duration
	samples []sample
}

// rate is the segment's completed requests per second.
func (s segment) rate() float64 { return float64(s.ops) / s.elapsed.Seconds() }

// closedLoop runs every connection back to back for d.
func (b *kvBench) closedLoop(d time.Duration) (segment, error) { return b.drive(d, 0) }

// openLoop offers rate requests per second across the connections for d,
// timing each request from the moment it was due.
func (b *kvBench) openLoop(d time.Duration, rate float64) (segment, error) { return b.drive(d, rate) }

// drive runs one segment: closed loop when rate is 0, else open loop.
func (b *kvBench) drive(d time.Duration, rate float64) (segment, error) {
	type result struct {
		ops, attempted, failed uint64
		samples                []sample
		wrong                  []string
		err                    error
	}
	results := make([]result, b.conns)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			cn, err := dial(b.addr)
			if err != nil {
				res.err = err
				return
			}
			defer cn.Close()
			var interval time.Duration
			if rate > 0 {
				interval = time.Duration(float64(b.conns) / rate * 1e9)
				res.samples = make([]sample, 0, int(d/interval)+1)
			} else {
				res.samples = make([]sample, 0, 1<<16)
			}
			m, ops := b.models[c], b.ops[c]
			var r reply
			for j := 0; ; j++ {
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(c)*interval/time.Duration(b.conns) + time.Duration(j)*interval)
					if !due.Before(end) {
						return
					}
					pace(due)
				}
				op := &ops[b.cursor[c]]
				b.cursor[c] = (b.cursor[c] + 1) % len(ops)
				sent := time.Now()
				if rate == 0 {
					if !sent.Before(end) {
						return
					}
					due = sent
				}
				var reqID uint64
				if b.tracing {
					reqID = uint64(c) + 1 + uint64(b.conns)*uint64(j) + b.nextReq
				}
				err := cn.do(op, reqID, &r)
				done := time.Now()
				if err != nil {
					res.err = fmt.Errorf("%s: %w", op.Kind, err)
					return
				}
				res.attempted++
				if b.tracing {
					b.tr.add(Span{Name: "client.request", Start: int64(sent.Sub(b.tr.base)), End: int64(done.Sub(b.tr.base)), ReqID: reqID, Kind: op.Kind})
				}
				if r.status != http.StatusOK {
					res.failed++
				} else if msg := m.check(op, &r); msg != "" {
					res.failed++
					res.wrong = append(res.wrong, msg)
				}
				if done.Before(end) {
					res.ops++
				}
				from := due
				if sent.Before(due) {
					from = sent
				}
				res.samples = append(res.samples, sample{kind: op.Kind, at: int64(due.Sub(start)), lat: int64(done.Sub(from)), late: max(0, int64(sent.Sub(due)))})
			}
		}(c)
	}
	wg.Wait()
	seg := segment{elapsed: min(time.Since(start), d)}
	b.nextReq += 1 << 40
	var errs []error
	for _, res := range results {
		if res.err != nil {
			errs = append(errs, res.err)
		}
		seg.ops += res.ops
		b.attempted += res.attempted
		b.failed += res.failed
		b.wrong = append(b.wrong, res.wrong...)
		seg.samples = append(seg.samples, res.samples...)
	}
	return seg, errors.Join(errs...)
}

// timerSlack is how late a nanosleep typically wakes (the kernel's
// default timer slack plus wake-up cost).
const timerSlack = 50 * time.Microsecond

// pace blocks until about due. The Go runtime's timers can wake up a
// millisecond late, which would make an open loop at sub-millisecond
// intervals send in bursts, so pace sleeps in the kernel instead; it
// holds the thread, which is free because the connection has no request
// in flight while it waits.
func pace(due time.Time) {
	wait := time.Until(due) - timerSlack
	if wait <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(wait))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// census reads the whole key universe back through /kv/range in chunks
// and compares each chunk's count and sum with the union of the
// connections' models.
func (b *kvBench) census() error {
	cn, err := dial(b.addr)
	if err != nil {
		return err
	}
	defer cn.Close()
	const chunk = 1024
	var r reply
	for lo := uint64(0); lo < b.spec.Keys; lo += chunk {
		hi := min(lo+chunk, b.spec.Keys) - 1
		var count, sum uint64
		for k := lo; k <= hi; k++ {
			m := b.models[k%uint64(b.conns)]
			if m.present[k] {
				count++
				sum += m.val[k]
			}
		}
		b.attempted++
		if err := cn.scan(lo, hi, &r); err != nil {
			return err
		}
		if r.status != http.StatusOK || r.count != count || r.sum != sum {
			b.failed++
			b.wrong = append(b.wrong, fmt.Sprintf("census [%d,%d]: status %d count %d sum %d, want count %d sum %d", lo, hi, r.status, r.count, r.sum, count, sum))
		}
	}
	return nil
}

// latencies returns the p50 and p99 (ms) of the samples of the given
// kinds (all kinds when none are named).
func latencies(samples []sample, kinds ...Kind) (p50, p99 float64) {
	var xs []float64
	for _, s := range samples {
		if len(kinds) == 0 || containsKind(kinds, s.kind) {
			xs = append(xs, ms(s.lat))
		}
	}
	return quantile(xs, 0.5), quantile(xs, 0.99)
}

// windowedP50 splits the samples into windows of win by due time and
// returns the median over windows of each window's median latency (ms).
func windowedP50(samples []sample, win time.Duration) float64 {
	byWin := map[int64][]float64{}
	for _, s := range samples {
		w := s.at / int64(win)
		byWin[w] = append(byWin[w], ms(s.lat))
	}
	var p50s []float64
	for _, xs := range byWin {
		p50s = append(p50s, median(xs))
	}
	return median(p50s)
}

func containsKind(kinds []Kind, k Kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// tunerView summarizes the shards' tuners over a window of their
// timelines: the installed configuration's median KPI relative to the
// best median KPI of any configuration they ran, that configuration's
// rank, the share of KPI samples taken while exploring, and the
// reconfigurations that changed the installed configuration.
type tunerView struct {
	tunedVsBest, finalRank, exploreShare float64
	reconfigs                            int
}

// tunerMark is the length of each shard's timeline and reconfiguration
// log at one instant; two marks bound a window.
type tunerMark struct {
	points, events []int
	configs        []string // installed configurations
}

func (b *kvBench) tunerMark() tunerMark {
	var m tunerMark
	for i := 0; i < b.srv.Shards(); i++ {
		sys := b.srv.ShardSystem(i)
		m.points = append(m.points, len(sys.Timeline()))
		m.events = append(m.events, len(sys.Reconfigurations()))
		m.configs = append(m.configs, sys.CurrentConfig().String())
	}
	return m
}

func (b *kvBench) tuner(from, to tunerMark) tunerView {
	var v tunerView
	var samples, exploring int
	for i := range from.points {
		sys := b.srv.ShardSystem(i)
		kpis := map[string][]float64{}
		for _, p := range sys.Timeline()[from.points[i]:to.points[i]] {
			samples++
			if p.Exploring {
				exploring++
			}
			kpis[p.Config.String()] = append(kpis[p.Config.String()], p.KPI)
		}
		for _, e := range sys.Reconfigurations()[from.events[i]:to.events[i]] {
			if e.From != e.To {
				v.reconfigs++
			}
		}
		final := to.configs[i]
		var meds []float64
		for _, xs := range kpis {
			meds = append(meds, median(xs))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(meds)))
		ratio, rank := 1.0, 1.0
		if fk, ok := kpis[final]; ok && len(meds) > 0 && meds[0] > 0 {
			f := median(fk)
			ratio = f / meds[0]
			rank = float64(1 + sort.Search(len(meds), func(j int) bool { return meds[j] <= f }))
		}
		v.tunedVsBest += ratio / float64(len(from.points))
		v.finalRank = max(v.finalRank, rank)
	}
	if samples > 0 {
		v.exploreShare = float64(exploring) / float64(samples)
	}
	return v
}
