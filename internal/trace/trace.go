// Package trace records the lock-transition events of an ORWL run and
// renders them for analysis: per-task summaries, a virtual-time Gantt
// profile, and Chrome trace_event JSON (load chrome://tracing or Perfetto)
// with one row per task and one slice per critical section.
//
// Attach a Recorder to a runtime before Run:
//
//	rec := trace.NewRecorder()
//	rt := orwl.NewRuntime(orwl.Options{Machine: m, Trace: rec.Hook()})
//	...
//	rec.WriteChromeTrace(f, m.ClockHz())
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/orwl"
)

// Event is one recorded lock transition.
type Event struct {
	Task     string
	Location string
	Op       string // "acquire" or "release"
	Clock    float64
	Seq      int // global arrival order
}

// Recorder collects ORWL trace events; safe for concurrent use by all task
// goroutines.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Hook returns the callback to install as orwl.Options.Trace.
func (r *Recorder) Hook() func(orwl.TraceEvent) {
	return func(e orwl.TraceEvent) {
		r.mu.Lock()
		r.events = append(r.events, Event{
			Task:     e.Task.Name(),
			Location: e.Location.Name(),
			Op:       e.Op,
			Clock:    e.Clock,
			Seq:      len(r.events),
		})
		r.mu.Unlock()
	}
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// TaskSummary aggregates the events of one task.
type TaskSummary struct {
	Task       string
	Acquires   int
	Releases   int
	FirstClock float64
	LastClock  float64
}

// Summaries aggregates the recorded events per task, sorted by task name.
func (r *Recorder) Summaries() []TaskSummary {
	byTask := map[string]*TaskSummary{}
	for _, e := range r.Events() {
		s := byTask[e.Task]
		if s == nil {
			s = &TaskSummary{Task: e.Task, FirstClock: e.Clock}
			byTask[e.Task] = s
		}
		switch e.Op {
		case "acquire":
			s.Acquires++
		case "release":
			s.Releases++
		}
		if e.Clock < s.FirstClock {
			s.FirstClock = e.Clock
		}
		if e.Clock > s.LastClock {
			s.LastClock = e.Clock
		}
	}
	out := make([]TaskSummary, 0, len(byTask))
	for _, s := range byTask {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// CriticalSection is a held interval of one location by one task, in
// virtual cycles.
type CriticalSection struct {
	Task     string
	Location string
	Start    float64
	End      float64
}

// CriticalSections pairs acquire/release events per (task, location) into
// held intervals, in start order. Unmatched acquires (a crashed task) yield
// zero-length sections at the acquire clock.
func (r *Recorder) CriticalSections() []CriticalSection {
	type key struct{ task, loc string }
	open := map[key]float64{}
	var out []CriticalSection
	for _, e := range r.Events() {
		k := key{e.Task, e.Location}
		switch e.Op {
		case "acquire":
			open[k] = e.Clock
		case "release":
			if start, ok := open[k]; ok {
				out = append(out, CriticalSection{e.Task, e.Location, start, e.Clock})
				delete(open, k)
			}
		}
	}
	for k, start := range open {
		out = append(out, CriticalSection{k.task, k.loc, start, start})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// WriteChromeTrace emits the recorded critical sections as Chrome
// trace_event JSON ("X" complete events, microsecond timestamps derived
// from the virtual clock at the given frequency). Each task is one thread
// row.
func (r *Recorder) WriteChromeTrace(w io.Writer, clockHz float64) error {
	if clockHz <= 0 {
		clockHz = 1e6 // raw cycles as microseconds
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	tids := map[string]int{}
	tid := func(task string) int {
		if id, ok := tids[task]; ok {
			return id
		}
		id := len(tids) + 1
		tids[task] = id
		return id
	}
	first := true
	for _, cs := range r.CriticalSections() {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		us := func(cycles float64) float64 { return cycles / clockHz * 1e6 }
		_, err := fmt.Fprintf(bw,
			`  {"name": %q, "cat": "orwl", "ph": "X", "ts": %.3f, "dur": %.3f, "pid": 1, "tid": %d}`,
			cs.Location, us(cs.Start), us(cs.End-cs.Start), tid(cs.Task))
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// FormatSummaries renders the per-task table.
func FormatSummaries(sums []TaskSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %14s\n", "task", "acquires", "releases", "last clock")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-16s %9d %9d %14.0f\n", s.Task, s.Acquires, s.Releases, s.LastClock)
	}
	return b.String()
}
