package main

import (
	"fmt"

	"repro/internal/workloads"
)

// Kind is a kv request type.
type Kind uint8

const (
	Get Kind = iota
	Put
	Del
	CAS
	MPut
	Range
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "del", "cas", "mput", "range"}

func (k Kind) String() string { return kindNames[k] }

// mputKeys is the /kv/mput batch size; rangeSpan is the /kv/range width.
const (
	mputKeys  = 4
	rangeSpan = 256
)

// Op is one generated kv request. Key is the point key (or the range's
// low end); Val is a put or CAS new value; Old is a CAS expected value;
// Keys/Vals carry an mput batch.
type Op struct {
	Kind Kind
	Key  uint64
	Val  uint64
	Old  uint64
	Keys [mputKeys]uint64
	Vals [mputKeys]uint64
}

// KVSpec is the shape of a kv workload: the server's sharding and the
// client's key space and operation mix.
type KVSpec struct {
	Name        string
	Shards      int
	Partitioner string
	Keys        uint64 // preloaded keys 0..Keys-1 (value = key)
	Mix         string // workloads.ServiceMixByName mix for point ops
	MPutFrac    float64
	RangeFrac   float64
	// Rate is the open-loop offered rate in requests per second across
	// all connections.
	Rate float64
}

// genOps builds connection conn's request sequence of n ops. Connection c
// owns exactly the keys with key % conns == c, so its replies can be
// checked against a private model. The generator simulates that model so
// that about half the CAS requests name the current value and apply.
func genOps(spec KVSpec, seed uint64, conn, conns, n int) ([]Op, error) {
	mix, err := workloads.ServiceMixByName(spec.Mix)
	if err != nil {
		return nil, err
	}
	mix = mix.Normalize()
	if mix.Range > 0 {
		return nil, fmt.Errorf("mix %q: range ops come from RangeFrac, not the mix", spec.Mix)
	}
	rng := workloads.NewRand(seed*0x9E3779B97F4A7C15 + uint64(conn) + 1)
	owned := (spec.Keys - uint64(conn) + uint64(conns) - 1) / uint64(conns)
	ownedKey := func() uint64 { return uint64(conn) + uint64(conns)*(rng.Next()%owned) }
	// ownedIn draws an owned key from [lo, lo+width).
	ownedIn := func(lo, width uint64) uint64 {
		first := lo + (uint64(conn)+uint64(conns)-lo%uint64(conns))%uint64(conns)
		return first + uint64(conns)*(rng.Next()%((lo+width-first+uint64(conns)-1)/uint64(conns)))
	}
	m := newModel(spec.Keys)
	ops := make([]Op, n)
	for i := range ops {
		op := &ops[i]
		p := rng.Float64()
		switch {
		case p < spec.MPutFrac:
			op.Kind = MPut
			span := spec.Keys / mputKeys
			for j := range op.Keys {
				op.Keys[j] = ownedIn(uint64(j)*span, span)
				op.Vals[j] = rng.Next() >> 32
			}
		case p < spec.MPutFrac+spec.RangeFrac:
			op.Kind = Range
			op.Key = rng.Next() % (spec.Keys - rangeSpan + 1)
		default:
			q := rng.Float64()
			op.Key = ownedKey()
			switch {
			case q < mix.Get:
				op.Kind = Get
			case q < mix.Get+mix.Put:
				op.Kind, op.Val = Put, rng.Next()>>32
			case q < mix.Get+mix.Put+mix.Del:
				op.Kind = Del
			default:
				op.Kind, op.Val = CAS, rng.Next()>>32
				op.Old = m.val[op.Key]
				if rng.Next()&1 == 0 {
					op.Old++
				}
			}
		}
		m.apply(op)
	}
	return ops, nil
}

// model is one connection's view of its own keys.
type model struct {
	val     []uint64
	present []bool
}

func newModel(keys uint64) *model {
	m := &model{val: make([]uint64, keys), present: make([]bool, keys)}
	for k := range m.val {
		m.val[k], m.present[k] = uint64(k), true
	}
	return m
}

// apply advances the model by op, assuming the server executed it.
func (m *model) apply(op *Op) {
	switch op.Kind {
	case Put:
		m.val[op.Key], m.present[op.Key] = op.Val, true
	case Del:
		m.val[op.Key], m.present[op.Key] = 0, false
	case CAS:
		if m.present[op.Key] && m.val[op.Key] == op.Old {
			m.val[op.Key] = op.Val
		}
	case MPut:
		for j, k := range op.Keys {
			m.val[k], m.present[k] = op.Vals[j], true
		}
	}
}

// check verifies a reply to op against the model and then advances the
// model. It returns a description of the first mismatch, or "".
func (m *model) check(op *Op, r *reply) string {
	k := op.Key
	switch op.Kind {
	case Get:
		if r.found != m.present[k] || r.val != m.val[k] {
			return fmt.Sprintf("get %d: got found=%v val=%d, want found=%v val=%d", k, r.found, r.val, m.present[k], m.val[k])
		}
	case Put:
		if !r.applied || r.existed != m.present[k] {
			return fmt.Sprintf("put %d: got applied=%v existed=%v, want existed=%v", k, r.applied, r.existed, m.present[k])
		}
	case Del:
		if r.applied != m.present[k] {
			return fmt.Sprintf("del %d: got applied=%v, want %v", k, r.applied, m.present[k])
		}
	case CAS:
		swap := m.present[k] && m.val[k] == op.Old
		want := m.val[k]
		if swap {
			want = op.Val
		}
		if r.applied != swap || r.val != want {
			return fmt.Sprintf("cas %d old=%d: got applied=%v val=%d, want applied=%v val=%d", k, op.Old, r.applied, r.val, swap, want)
		}
	case MPut:
		if !r.applied {
			return fmt.Sprintf("mput %v: not applied", op.Keys)
		}
	case Range:
		if r.count > rangeSpan {
			return fmt.Sprintf("range %d: count %d exceeds span %d", k, r.count, rangeSpan)
		}
	}
	m.apply(op)
	return ""
}
