package comm

import (
	"sync"
	"testing"
)

func TestWindowRollResets(t *testing.T) {
	w := NewWindow(3)
	w.AddSym(0, 1, 10)
	w.AddSym(1, 2, 4)

	snap := w.Roll()
	if got := snap.At(0, 1); got != 10 {
		t.Errorf("snapshot (0,1) = %v, want 10", got)
	}
	if got := snap.At(2, 1); got != 4 {
		t.Errorf("snapshot (2,1) = %v, want 4 (symmetric)", got)
	}
	if got := w.cur.TotalVolume(); got != 0 {
		t.Errorf("window not empty after Roll(): total %v", got)
	}

	// The next epoch sees only its own traffic.
	w.AddSym(0, 2, 7)
	next := w.Roll()
	if got := next.At(0, 1); got != 0 {
		t.Errorf("second epoch still sees first-epoch volume: %v", got)
	}
	if got := next.At(0, 2); got != 7 {
		t.Errorf("second epoch (0,2) = %v, want 7", got)
	}
}

func TestWindowRollInPlace(t *testing.T) {
	w := NewWindow(3)
	w.AddSym(0, 1, 10)
	col, val := &w.cur.rows[0].cols[0], &w.cur.rows[0].vals[0]
	inPlace := func() bool { return &w.cur.rows[0].cols[0] == col && &w.cur.rows[0].vals[0] == val }
	w.Roll()
	// A reset truncates the rows and keeps their arrays: the same traffic in
	// the next epoch lands in the same storage.
	w.AddSym(0, 1, 3)
	if !inPlace() {
		t.Error("Roll() reallocated the window's backing storage")
	}
	if got := w.cur.At(1, 0); got != 3 {
		t.Errorf("window (1,0) = %v, want 3", got)
	}
}

func TestWindowConcurrentAdd(t *testing.T) {
	w := NewWindow(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.AddSym(0, 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := w.cur.At(0, 1); got != 800 {
		t.Errorf("concurrent accumulation = %v, want 800", got)
	}
}
