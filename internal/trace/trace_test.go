package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
)

// tracedRun executes a two-task handoff program with a recorder attached.
func tracedRun(t *testing.T) (*Recorder, *numasim.Machine) {
	t.Helper()
	top, err := topology.FromSpec("pack:2 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := numasim.New(top, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Trace: rec.Hook()})
	loc := rt.NewLocation("x", 1024)
	for i, name := range []string{"producer", "consumer"} {
		task := rt.AddTask(name, func(task *orwl.Task) error {
			h := task.Handle(0)
			for it := 0; it < 3; it++ {
				if err := h.Acquire(); err != nil {
					return err
				}
				task.Proc().ComputeCycles(100)
				var err error
				if it == 2 {
					err = h.Release()
				} else {
					err = h.ReleaseAndRequest()
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		task.NewHandle(loc, orwl.Write)
		if err := rt.Bind(task, i*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rec, mach
}

func TestRecorderCollects(t *testing.T) {
	rec, _ := tracedRun(t)
	// 2 tasks x 3 iterations x (acquire + release).
	if got := rec.Len(); got != 12 {
		t.Fatalf("events = %d, want 12", got)
	}
	evs := rec.Events()
	for i, e := range evs {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Op != "acquire" && e.Op != "release" {
			t.Errorf("bad op %q", e.Op)
		}
		if e.Location != "x" {
			t.Errorf("bad location %q", e.Location)
		}
	}
}

func TestSummaries(t *testing.T) {
	rec, _ := tracedRun(t)
	sums := rec.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// Sorted by name: consumer then producer.
	if sums[0].Task != "consumer" || sums[1].Task != "producer" {
		t.Errorf("order: %s, %s", sums[0].Task, sums[1].Task)
	}
	for _, s := range sums {
		if s.Acquires != 3 || s.Releases != 3 {
			t.Errorf("%s: %d/%d, want 3/3", s.Task, s.Acquires, s.Releases)
		}
		if s.LastClock <= s.FirstClock {
			t.Errorf("%s: clocks not increasing: %v..%v", s.Task, s.FirstClock, s.LastClock)
		}
	}
	out := FormatSummaries(sums)
	if !strings.Contains(out, "producer") || !strings.Contains(out, "acquires") {
		t.Errorf("FormatSummaries: %s", out)
	}
}

func TestCriticalSections(t *testing.T) {
	rec, _ := tracedRun(t)
	secs := rec.CriticalSections()
	if len(secs) != 6 {
		t.Fatalf("sections = %d, want 6", len(secs))
	}
	for i, cs := range secs {
		if cs.End < cs.Start {
			t.Errorf("section %d has negative span: %+v", i, cs)
		}
		if i > 0 && cs.Start < secs[i-1].Start {
			t.Errorf("sections not sorted at %d", i)
		}
	}
	// The lock is exclusive: held intervals must not overlap.
	for i := 1; i < len(secs); i++ {
		if secs[i].Start < secs[i-1].End {
			t.Errorf("overlap: %+v then %+v", secs[i-1], secs[i])
		}
	}
}

func TestUnmatchedAcquire(t *testing.T) {
	rec := NewRecorder()
	hook := rec.Hook()
	_ = hook // direct event injection below
	rec.mu.Lock()
	rec.events = []Event{
		{Task: "t", Location: "x", Op: "acquire", Clock: 5},
	}
	rec.mu.Unlock()
	secs := rec.CriticalSections()
	if len(secs) != 1 || secs[0].Start != 5 || secs[0].End != 5 {
		t.Errorf("unmatched acquire sections: %+v", secs)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	rec, mach := tracedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, mach.ClockHz()); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 6 {
		t.Fatalf("trace slices = %d, want 6", len(parsed))
	}
	for _, ev := range parsed {
		if ev["ph"] != "X" || ev["name"] != "x" {
			t.Errorf("bad slice: %v", ev)
		}
		if ev["dur"].(float64) < 0 {
			t.Errorf("negative duration: %v", ev)
		}
	}
	// Zero clock frequency falls back without error.
	if err := rec.WriteChromeTrace(&bytes.Buffer{}, 0); err != nil {
		t.Errorf("zero-Hz trace: %v", err)
	}
}
