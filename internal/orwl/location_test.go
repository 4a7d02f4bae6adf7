package orwl

import (
	"sync"
	"testing"
	"time"
)

// buildPair returns a runtime (no machine) with one location and n tasks
// that do nothing; handles are created by the caller.
func buildRuntime() *Runtime {
	return NewRuntime(Options{})
}

// granted reports whether the handle's queued request has been granted,
// without acquiring it.
func granted(h *Handle) bool {
	return h.req.granted.Load()
}

func TestModeAndStateStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("mode names: %v %v", Read, Write)
	}
	if Mode(9).String() == "" {
		t.Errorf("unknown mode empty")
	}
	if Idle.String() != "idle" || Requested.String() != "requested" || Acquired.String() != "acquired" {
		t.Errorf("state names wrong")
	}
	if HandleState(9).String() == "" {
		t.Errorf("unknown state empty")
	}
}

func TestWriteExclusive(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	t1 := rt.AddTask("t1", nil)
	t2 := rt.AddTask("t2", nil)
	h1 := t1.NewHandle(loc, Write)
	h2 := t2.NewHandle(loc, Write)

	if err := h1.Request(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Request(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Acquire(); err != nil {
		t.Fatal(err)
	}
	// h2 must not be granted while h1 holds the lock.
	if granted(h2) {
		t.Fatalf("second writer granted while first holds the lock")
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
	if loc.Grants() != 2 {
		t.Errorf("grants = %d, want 2", loc.Grants())
	}
	if loc.QueueLen() != 0 {
		t.Errorf("queue not empty: %d", loc.QueueLen())
	}
}

func TestReadSharing(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	var readers []*Handle
	for i := 0; i < 4; i++ {
		task := rt.AddTask("r", nil)
		readers = append(readers, task.NewHandle(loc, Read))
	}
	wTask := rt.AddTask("w", nil)
	w := wTask.NewHandle(loc, Write)

	// Queue: R R R R W — all four readers must be granted together.
	for _, r := range readers {
		if err := r.Request(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Request(); err != nil {
		t.Fatal(err)
	}
	for i, r := range readers {
		if !granted(r) {
			t.Fatalf("reader %d not granted in the shared group", i)
		}
		if err := r.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	// Writer blocked until every reader releases.
	if granted(w) {
		t.Fatalf("writer granted while readers hold the lock")
	}
	for i, r := range readers {
		if err := r.Release(); err != nil {
			t.Fatal(err)
		}
		if i < len(readers)-1 && granted(w) {
			t.Fatalf("writer granted after only %d releases", i+1)
		}
		if i == len(readers)-1 && !granted(w) {
			t.Fatalf("writer not granted after all readers released")
		}
	}
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderBehindWriterWaits(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	wTask := rt.AddTask("w", nil)
	rTask := rt.AddTask("r", nil)
	w := wTask.NewHandle(loc, Write)
	r := rTask.NewHandle(loc, Read)

	// Queue: W R — the reader must wait even though reads could share.
	if err := w.Request(); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(); err != nil {
		t.Fatal(err)
	}
	if granted(r) {
		t.Fatalf("reader granted past a queued writer (FIFO violated)")
	}
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderAmongWriters(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	const n = 5
	var handles []*Handle
	for i := 0; i < n; i++ {
		task := rt.AddTask("w", nil)
		handles = append(handles, task.NewHandle(loc, Write))
	}
	for _, h := range handles {
		if err := h.Request(); err != nil {
			t.Fatal(err)
		}
	}
	// Grant order must equal request order.
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- { // start goroutines in reverse to stress ordering
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			if err := h.Acquire(); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			if err := h.Release(); err != nil {
				t.Error(err)
			}
		}(i, handles[i])
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("grant order %v, want FIFO 0..%d", order, n-1)
		}
	}
}

func TestReleaseAndRequestKeepsCycle(t *testing.T) {
	// Two writers alternating on one location via ReleaseAndRequest: each
	// must obtain the lock exactly once per round, in the canonical order.
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	a := rt.AddTask("a", nil).NewHandle(loc, Write)
	b := rt.AddTask("b", nil).NewHandle(loc, Write)
	if err := a.Request(); err != nil {
		t.Fatal(err)
	}
	if err := b.Request(); err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	const rounds = 10
	var wg sync.WaitGroup
	for _, tc := range []struct {
		n string
		h *Handle
	}{{"a", a}, {"b", b}} {
		wg.Add(1)
		go func(n string, h *Handle) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := h.Acquire(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, n)
				mu.Unlock()
				var err error
				if i == rounds-1 {
					err = h.Release()
				} else {
					err = h.ReleaseAndRequest()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(tc.n, tc.h)
	}
	wg.Wait()
	if len(order) != 2*rounds {
		t.Fatalf("grants = %d, want %d", len(order), 2*rounds)
	}
	for i, want := range []string{"a", "b"} {
		for r := 0; r < rounds; r++ {
			if order[2*r+i] != want {
				t.Fatalf("round %d: order %v not strictly alternating", r, order)
			}
		}
	}
}

func TestSetDataAndQueueLen(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 64)
	loc.SetData([]float64{1, 2, 3})
	if loc.Size() != 64 || loc.Name() != "x" || loc.id != 0 {
		t.Errorf("location metadata wrong")
	}
	h := rt.AddTask("t", nil).NewHandle(loc, Read)
	if err := h.Request(); err != nil {
		t.Fatal(err)
	}
	if loc.QueueLen() != 1 {
		t.Errorf("QueueLen = %d", loc.QueueLen())
	}
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	d, err := h.Float64s()
	if err != nil || len(d) != 3 {
		t.Errorf("Float64s = %v, %v", d, err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}
