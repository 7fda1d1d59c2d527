package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary: around a client request, or
// around a driver's call into a layer's public API. Spans of one
// request share req; parent is the span that caused this one (0 for a
// root). Spans inside rsm and gcs are a later change.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	OK      bool  `json:"ok"`
}

// tracer keeps spans in memory and writes them out when the run ends,
// so recording costs an append and no I/O while anything is timed. A
// nil *tracer records nothing: the untraced run pays one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(layer, name string, parent, req int64) (id int64, end func(ok bool)) {
	if t == nil {
		return 0, func(bool) {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Req: req, Layer: layer, Name: name, StartNs: int64(start)})
	idx := len(t.spans) - 1
	id = int64(idx + 1)
	t.spans[idx].ID = id
	t.mu.Unlock()
	return id, func(ok bool) {
		e := time.Since(t.t0)
		t.mu.Lock()
		t.spans[idx].EndNs = int64(e)
		t.spans[idx].OK = ok
		t.mu.Unlock()
	}
}

// time runs fn inside a span.
func (t *tracer) time(layer, name string, parent int64, fn func() error) error {
	_, end := t.begin(layer, name, parent, 0)
	err := fn()
	end(err == nil)
	return err
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the per-name roll-up the traced run prints.
type spanSummary struct {
	layer, name string
	count       int
	totalNs     int64
	// selfNs is total time minus the part of each span's interval its
	// child spans cover.
	selfNs int64
	p50Ns  int64
}

// summarise computes, per (layer, name), the count, total, self time
// and median duration of the closed spans.
func summarise(spans []span) []spanSummary {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.EndNs > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct{ layer, name string }
	agg := map[key]*spanSummary{}
	durs := map[key][]int64{}
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		k := key{s.Layer, s.Name}
		a := agg[k]
		if a == nil {
			a = &spanSummary{layer: s.Layer, name: s.Name}
			agg[k] = a
		}
		d := s.EndNs - s.StartNs
		a.count++
		a.totalNs += d
		a.selfNs += d - covered(children[s.ID], s.StartNs, s.EndNs)
		durs[k] = append(durs[k], d)
	}
	out := make([]spanSummary, 0, len(agg))
	for k, a := range agg {
		d := durs[k]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		a.p50Ns = d[len(d)/2]
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].layer != out[j].layer {
			return out[i].layer < out[j].layer
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [from, to].
func covered(children []span, from, to int64) int64 {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	var total int64
	cur := from
	for _, c := range children {
		s, e := c.StartNs, c.EndNs
		if s < cur {
			s = cur
		}
		if e > to {
			e = to
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
