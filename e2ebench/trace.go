package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the system.
// Spans of one operation share Query; setup spans carry Query -1.
// Derived spans are not timed by the benchmark: their duration is a time
// the program itself reports (Session.ReplayTime, a response's
// elapsedNs), placed at the start of their parent.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Query   int    `json:"query"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"startNs"` // since the tracer was created
	EndNs   int64  `json:"endNs"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, layer string, parent, query int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Query: query,
		Name: name, Layer: layer, StartNs: now, EndNs: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// derived records a span of the given duration at the start of parent
// and returns its id.
func (t *tracer) derived(name, layer string, parent int, d time.Duration) int {
	if t == nil || parent == 0 || d <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	end := p.StartNs + d.Nanoseconds()
	if p.EndNs >= 0 && end > p.EndNs {
		end = p.EndNs
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Query: p.Query,
		Name: name, Layer: layer, StartNs: p.StartNs, EndNs: end, Derived: true})
	return len(t.spans)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per layer, the summed self time of the closed spans
// whose query satisfies keep: a span's duration minus the parts its
// direct children cover.
func SelfTimes(spans []Span, keep func(query int) bool) map[string]time.Duration {
	childCover := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			childCover[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.EndNs < 0 || !keep(s.Query) {
			continue
		}
		self := s.EndNs - s.StartNs - childCover[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += time.Duration(self)
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSample is a reading of the runtime counters the benchmark reports;
// runtime/metrics reads them without stopping the world.
type rtSample struct {
	gcCycles   float64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
	allocBytes float64
	liveHeap   float64 // bytes live after the last GC
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	v := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		default:
			panic(fmt.Sprintf("runtime metric %s is unsupported by this Go release", rtNames[i]))
		}
	}
	return rtSample{gcCycles: v(0), gcCPU: v(1), totalCPU: v(2), allocBytes: v(3), liveHeap: v(4)}
}

// allocObjects returns the heap objects allocated so far by the process.
func allocObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
