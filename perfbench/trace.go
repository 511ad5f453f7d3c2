package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// traceLayers are the layers spans are recorded for. "bench" is the
// benchmark's own work between calls (request building, checks).
var traceLayers = []string{"bench", "octree", "core", "arena", "store", "serve"}

// span is one timed call into a layer, recorded from the benchmark's own
// files. Parent is the span that caused it (0: none); Sess is the
// session or request it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Sess   string `json:"sess,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write emits them once, at the end. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (tr *tracer) begin(parent int64, layer, name, sess string) int64 {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Sess: sess, Start: now, End: -1})
	tr.mu.Unlock()
	return id
}

// end closes span id.
func (tr *tracer) end(id int64) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// selfTimes returns each layer's self time in nanoseconds: every span's
// duration minus the part of it its child spans cover.
func (tr *tracer) selfTimes() map[string]int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals, clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	return total + curE - curS
}

// write stores every span as one JSON document.
func (tr *tracer) write(path, workload string, seed uint64) error {
	tr.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.spans}
	b, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// addLayerMetrics completes a traced outcome: per-layer self times, the
// tracing overhead against the untraced outcome's headline metric, and
// zeros for every layer metric the workload never exercised.
func addLayerMetrics(traced, untraced *outcome, tr *tracer) {
	self := tr.selfTimes()
	for _, l := range traceLayers {
		traced.set("trace.self_ms."+l, "ms", float64(self[l])/1e6)
	}
	// Overhead compares like with like: time to solution for the solver
	// workloads, throughput for the service.
	u, t := untraced.metrics[untraced.headline].Value, traced.metrics[untraced.headline].Value
	if u > 0 && t > 0 {
		ratio := t / u
		if untraced.headline == "requests_per_s" {
			ratio = u / t
		}
		traced.set("trace.overhead_pct", "%", 100*(ratio-1))
	}
	zeroLayerMetrics(traced)
}
