package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public API. Spans of one op share
// the op number; replay spans (lower-layer functions called with the inputs
// the pipeline would hand them, outside any op) carry op -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls is how many calls of the named function the span covers; the
	// metric is the duration divided by it (1 for an ordinary span).
	Calls int `json:"calls"`
	// Scale converts the measured duration to time at the host's nominal
	// speed (see calibrate); the metrics use it, the Chrome trace does not.
	Scale float64 `json:"scale"`
}

// tracer keeps the spans of the traced pass in memory; they are written out
// once, when the pass ends. A nil *tracer is the untraced pass: every method
// is a no-op, so an op runs the same statements either way.
//
// Every span is opened and closed by the benchmark's own goroutine (the
// layers may fan out internally, but only the call boundary is recorded), so
// a plain stack gives the parent.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, counts: map[string]float64{}}
}

func noop() {}

// span opens a span and returns the function that closes it. The name is
// the per-layer metric the span feeds ("treematch.map_ms"): the text before
// the first dot is the layer, the suffix after the last underscore the unit
// the duration is reported in.
func (t *tracer) span(name string) func() { return t.sweep(name, 1) }

// sweep is span for a loop of calls equally named: the metric reports the
// time per call.
func (t *tracer) sweep(name string, calls int) func() {
	if t == nil {
		return noop
	}
	layer, _, _ := strings.Cut(name, ".")
	parent := -1
	// A replay root brackets itself with calibration loops, as the harness
	// brackets an op.
	var before float64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else if t.op < 0 {
		before = calibrate()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Calls: calls, Scale: 1})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	return func() {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
		if before > 0 {
			t.setScale(id, 2*calNominalMs/(before+calibrate()))
		}
	}
}

// setScale sets the host-speed correction of the spans recorded since span
// id was opened, id included.
func (t *tracer) setScale(id int, scale float64) {
	for i := id; i < len(t.spans); i++ {
		t.spans[i].Scale = scale
	}
}

// count records a count made at a layer boundary (exact, not timed).
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

// unitScale is how many nanoseconds one unit of a span metric holds.
func unitScale(name string) (float64, bool) {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return 1e6, true
	case strings.HasSuffix(name, "_us"):
		return 1e3, true
	case strings.HasSuffix(name, "_ns"):
		return 1, true
	}
	return 0, false
}

// spanMetrics folds the spans into one value per span name: durations of
// equally named spans are summed inside an op (or inside one replay root),
// and the median over ops is reported, in the unit the name ends in.
func (t *tracer) spanMetrics() map[string]float64 {
	perOp := map[string]map[int]float64{}
	for _, s := range t.spans {
		scale, ok := unitScale(s.Name)
		if !ok {
			continue
		}
		key := s.Op
		if key < 0 {
			// Replays repeat under separate roots; each root is one sample.
			key = -1 - t.root(s.ID)
		}
		if perOp[s.Name] == nil {
			perOp[s.Name] = map[int]float64{}
		}
		perOp[s.Name][key] += float64(s.EndNs-s.StartNs) * s.Scale / scale / float64(s.Calls)
	}
	out := map[string]float64{}
	for name, byOp := range perOp {
		vals := make([]float64, 0, len(byOp))
		for _, v := range byOp {
			vals = append(vals, v)
		}
		out[name] = median(vals)
	}
	return out
}

func (t *tracer) root(id int) int {
	for t.spans[id].Parent >= 0 {
		id = t.spans[id].Parent
	}
	return id
}

// selfNs is a span's duration minus the part its child spans cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// layerSelfMs sums self time per layer over the op spans and divides by the
// op count: where one traced op's wall time went.
func (t *tracer) layerSelfMs(ops int) map[string]float64 {
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	self := t.selfNs()
	for i, s := range t.spans {
		if s.Op >= 0 {
			out[s.Layer] += float64(self[i]) * s.Scale / 1e6 / float64(ops)
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events; load in chrome://tracing or Perfetto). Ops and replays get
// one row each (tid), so nesting reads as a flame graph per op.
func (t *tracer) writeChromeTrace(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfNs()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid := s.Op + 1 // replays on row 0
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "calls": s.Calls, "self_us": float64(self[i]) / 1e3},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "counts": t.counts},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}
