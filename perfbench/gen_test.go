package main

import (
	"reflect"
	"testing"
)

// The whole request sequence is a function of the seed: the same seed
// gives the same sequence, another seed a different one.
func TestGenOpsSeeded(t *testing.T) {
	for name, spec := range kvSpecs {
		t.Run(name, func(t *testing.T) {
			gen := func(seed uint64) [][]Op {
				var out [][]Op
				for c := 0; c < 2; c++ {
					ops, err := genOps(spec, seed, c, 2, 4096)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, ops)
				}
				return out
			}
			a, b, other := gen(7), gen(7), gen(8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed gave different sequences")
			}
			if reflect.DeepEqual(a, other) {
				t.Fatal("different seeds gave the same sequence")
			}
			if reflect.DeepEqual(a[0], a[1]) {
				t.Fatal("connections share one sequence")
			}
		})
	}
}

// Every key a connection touches is one it owns, and mput batches hit
// four different spans of the key space.
func TestGenOpsOwnership(t *testing.T) {
	const conns = 3
	for name, spec := range kvSpecs {
		for c := 0; c < conns; c++ {
			ops, err := genOps(spec, 1, c, conns, 4096)
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[Kind]int{}
			for _, op := range ops {
				kinds[op.Kind]++
				switch op.Kind {
				case MPut:
					span := spec.Keys / mputKeys
					for j, k := range op.Keys {
						if k%conns != uint64(c) || k/span != uint64(j) || k >= spec.Keys {
							t.Fatalf("%s conn %d: mput key %d (slot %d) not owned or not in span %d", name, c, k, j, j)
						}
					}
				case Range:
					if op.Key+rangeSpan > spec.Keys {
						t.Fatalf("%s: range %d runs past the key space", name, op.Key)
					}
				default:
					if op.Key%conns != uint64(c) || op.Key >= spec.Keys {
						t.Fatalf("%s conn %d: key %d not owned", name, c, op.Key)
					}
				}
			}
			if spec.MPutFrac > 0 && (kinds[MPut] == 0 || kinds[Range] == 0) {
				t.Fatalf("%s: no mput or range ops: %v", name, kinds)
			}
			if kinds[CAS] == 0 || kinds[Get] == 0 {
				t.Fatalf("%s: missing point kinds: %v", name, kinds)
			}
		}
	}
}

// The model accepts the replies a correct server gives and rejects a
// wrong one.
func TestModelCheck(t *testing.T) {
	m := newModel(8)
	steps := []struct {
		op   Op
		r    reply
		ok   bool
		desc string
	}{
		{Op{Kind: Get, Key: 3}, reply{found: true, val: 3}, true, "preloaded get"},
		{Op{Kind: Get, Key: 3}, reply{found: true, val: 4}, false, "wrong value"},
		{Op{Kind: Put, Key: 3, Val: 9}, reply{applied: true, existed: true}, true, "overwrite"},
		{Op{Kind: CAS, Key: 3, Old: 8, Val: 1}, reply{val: 9}, true, "failed cas"},
		{Op{Kind: CAS, Key: 3, Old: 9, Val: 1}, reply{applied: true, val: 1}, true, "cas"},
		{Op{Kind: Del, Key: 3}, reply{applied: true}, true, "delete"},
		{Op{Kind: Get, Key: 3}, reply{}, true, "deleted get"},
		{Op{Kind: Del, Key: 3}, reply{applied: true}, false, "double delete"},
		{Op{Kind: MPut, Keys: [4]uint64{0, 2, 4, 6}, Vals: [4]uint64{5, 5, 5, 5}}, reply{applied: true}, true, "mput"},
		{Op{Kind: Get, Key: 4}, reply{found: true, val: 5}, true, "get after mput"},
	}
	for _, s := range steps {
		if got := m.check(&s.op, &s.r) == ""; got != s.ok {
			t.Fatalf("%s: check ok=%v, want %v", s.desc, got, s.ok)
		}
	}
}

func TestParseReply(t *testing.T) {
	var r reply
	if err := parseReply([]byte(`{"found":true,"val":42}`+"\n"), &r); err != nil || !r.found || r.val != 42 {
		t.Fatalf("got %+v, %v", r, err)
	}
	if err := parseReply([]byte(`{"count":3,"sum":12,"err":"x, y"}`), &r); err != nil || r.count != 3 || r.sum != 12 {
		t.Fatalf("got %+v, %v", r, err)
	}
	for _, bad := range []string{`[1]`, `{"found":yes}`, `{"val":-1}`, `{val:1}`} {
		if err := parseReply([]byte(bad), &r); err == nil {
			t.Fatalf("%s: accepted", bad)
		}
	}
}
