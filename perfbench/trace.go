package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// requestIDHeader links a client.request span to the serve.handler span
// of the same HTTP round trip.
const requestIDHeader = "X-Request-Id"

// Span is one timed interval. Start and End are nanoseconds since the
// run's time base; Parent is the causing span's ID (0 for a root).
type Span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
	ReqID      uint64
	Kind       Kind
}

// tracer collects spans in memory and writes them out when the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s Span) {
	t.mu.Lock()
	s.ID = uint64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps the serving layer's http.Handler with a serve.handler
// span, parented (through the request-id header) to the client span.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(Span{Name: "serve.handler", Start: start, End: t.now(), ReqID: id})
	})
}

// link sets each serve.handler span's parent to the client.request span
// with the same request id and returns the children of each root, keyed
// by the root's index in t.spans.
func (t *tracer) link() map[int][]Span {
	roots := map[uint64]int{}
	for i, s := range t.spans {
		if s.Name == "client.request" {
			roots[s.ReqID] = i
		}
	}
	children := map[int][]Span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "serve.handler" {
			continue
		}
		if ri, ok := roots[s.ReqID]; ok {
			s.Parent = t.spans[ri].ID
			children[ri] = append(children[ri], *s)
		}
	}
	return children
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once and parts of a
// child outside the parent are ignored.
func selfTime(parent Span, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), parent.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return parent.End - parent.Start - covered
}

// write saves every span as one tab-separated line (id, parent, name,
// start_ns, end_ns, request id) to a gzip file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\treq_id")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.ReqID)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
