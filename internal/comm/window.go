package comm

import "sync"

// Window accumulates communication volumes over a bounded horizon: the
// runtime feeds it every observed handoff, and at each epoch boundary the
// placement engine takes a snapshot and rolls the window forward, which
// clears the accumulation: a hard per-epoch window.
//
// Where Runtime.MeasuredCommMatrix grows without bound over a run — and
// therefore converges to the time-averaged pattern, hiding phase changes —
// a Window sees only the traffic since the previous epoch, which is what
// an adaptive re-placement decision must react to.
//
// A Window is safe for concurrent use.
type Window struct {
	mu  sync.Mutex
	cur *Matrix
}

// NewWindow returns an empty window over n entities.
func NewWindow(n int) *Window {
	return &Window{cur: New(n)}
}

// AddSym accumulates one observed exchange of vol bytes between entities i
// and j onto both (i,j) and (j,i).
func (w *Window) AddSym(i, j int, vol float64) {
	w.mu.Lock()
	w.cur.AddSym(i, j, vol)
	w.mu.Unlock()
}

// Roll returns a snapshot of the accumulation and resets the window.
//
// The accumulation is cleared in place — the backing storage of the window
// is allocated once and reused across every epoch; only the snapshot is a
// copy.
func (w *Window) Roll() *Matrix {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := w.cur.Clone()
	w.cur.zero()
	return snap
}

// zero clears every entry in place, keeping the allocated storage.
func (m *Matrix) zero() {
	for i := range m.rows {
		m.rows[i].cols = m.rows[i].cols[:0]
		m.rows[i].vals = m.rows[i].vals[:0]
	}
}
