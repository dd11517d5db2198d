package main

import (
	"testing"
	"time"
)

// A parent's self time is its duration minus the part of it its children
// cover, counting overlaps once and ignoring what lies outside it.
func TestSelfTime(t *testing.T) {
	parent := Span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []Span{{Start: 120, End: 150}}, 70},
		{"disjoint", []Span{{Start: 110, End: 120}, {Start: 180, End: 190}}, 80},
		{"overlapping", []Span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped", []Span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"outside", []Span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"covering", []Span{{Start: 0, End: 300}}, 0},
		{"unsorted", []Span{{Start: 170, End: 180}, {Start: 110, End: 130}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// link parents each handler span to the client span of its request id.
func TestLink(t *testing.T) {
	tr := newTracer(time.Now())
	tr.add(Span{Name: "client.request", Start: 0, End: 100, ReqID: 7, Kind: Get})
	tr.add(Span{Name: "serve.handler", Start: 20, End: 60, ReqID: 7})
	tr.add(Span{Name: "serve.handler", Start: 20, End: 60, ReqID: 8})
	kids := tr.link()
	if len(kids[0]) != 1 || kids[0][0].Parent != tr.spans[0].ID {
		t.Fatalf("children of the root = %+v", kids[0])
	}
	if tr.spans[2].Parent != 0 {
		t.Fatal("an unmatched handler span got a parent")
	}
	if got := selfTime(tr.spans[0], kids[0]); got != 60 {
		t.Fatalf("self time %d, want 60", got)
	}
}
