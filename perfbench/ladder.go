package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/shard"
)

// ladderRungTime is how long each rung of the layer ladder measures.
const ladderRungTime = 150 * time.Millisecond

// setBenchTime makes testing.Benchmark run each internal/bench body for
// about ladderRungTime instead of its one-second default.
func setBenchTime() error {
	testing.Init()
	return flag.Set("test.benchtime", ladderRungTime.String())
}

// nsPerOp runs one internal/bench body and returns its ns/op.
func nsPerOp(fn func(b *testing.B)) float64 {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// timeLoop calls fn(i) for i = 0, 1, ... in batches until ladderRungTime
// has passed and returns the mean ns per call.
func timeLoop(fn func(i int)) float64 {
	const batch = 256
	n := 0
	start := time.Now()
	for time.Since(start) < ladderRungTime {
		for j := 0; j < batch; j++ {
			fn(n + j)
		}
		n += batch
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// ladder times the layers below the HTTP handler, each on its own: the
// serve.Store operations inside proteustm.Worker.Atomic and the
// partitioner on the kv workload's key count and keys, then the TM
// backends, PolyTM dispatch and the public API through the shared
// internal/bench bodies at nproc threads (the PolyTM pair at the bench
// suite's four threads).
func ladder(spec KVSpec, keys []uint64, nproc int) (map[string]float64, error) {
	out := map[string]float64{}
	if len(keys) == 0 {
		return nil, fmt.Errorf("ladder: no keys")
	}

	// One shard's store holds its share of the preloaded keys.
	shardKeys := spec.Keys / uint64(spec.Shards)
	sys, err := proteustm.Open(proteustm.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	store, err := serve.NewStore(sys.Heap())
	if err != nil {
		return nil, err
	}
	w, err := sys.Worker(0)
	if err != nil {
		return nil, err
	}
	for lo := uint64(0); lo < shardKeys; lo += 64 {
		w.Atomic(func(tx proteustm.Txn) {
			for k := lo; k < min(lo+64, shardKeys); k++ {
				store.Put(tx, 0, k, k)
			}
		})
	}
	key := func(i int) uint64 { return keys[i%len(keys)] % shardKeys }
	var sink uint64
	out["store.get_ns"] = timeLoop(func(i int) {
		w.Atomic(func(tx proteustm.Txn) {
			v, _ := store.Get(tx, key(i))
			sink += v
		})
	})
	out["store.put_ns"] = timeLoop(func(i int) {
		k := key(i)
		w.Atomic(func(tx proteustm.Txn) { store.Put(tx, 0, k, k) })
	})
	out["store.range256_ns"] = timeLoop(func(i int) {
		lo := key(i) % (shardKeys - rangeSpan + 1)
		w.Atomic(func(tx proteustm.Txn) {
			_, s := store.Range(tx, lo, lo+rangeSpan-1)
			sink += s
		})
	})

	part, err := shard.NewPartitioner(spec.Partitioner, spec.Shards, spec.Keys)
	if err != nil {
		return nil, err
	}
	out["shard.owner_ns"] = timeLoop(func(i int) { sink += uint64(part.Owner(keys[i%len(keys)])) })
	out["shard.owners_in_range_ns"] = timeLoop(func(i int) {
		lo := keys[i%len(keys)] % (spec.Keys - rangeSpan + 1)
		sink += uint64(len(part.OwnersInRange(lo, lo+rangeSpan-1)))
	})
	_ = sink

	for _, name := range bench.AlgorithmNames {
		out["tm.txn_ns."+name] = nsPerOp(func(b *testing.B) { bench.CounterTx(b, bench.NewAlgorithm(name), nproc) })
	}
	bare := nsPerOp(func(b *testing.B) { bench.CounterTx(b, bench.NewAlgorithm("tl2"), 4) })
	poly := nsPerOp(bench.DispatchPolyTM)
	out["polytm.txn_ns"] = poly
	if bare > 0 {
		out["polytm.overhead"] = poly/bare - 1
	}
	out["proteustm.atomic_ns"] = nsPerOp(bench.PublicAPI)
	return out, nil
}
