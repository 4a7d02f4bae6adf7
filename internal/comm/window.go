package comm

import "sync"

// Window accumulates communication volumes over a bounded horizon: the
// runtime feeds it every observed handoff, and at each epoch boundary the
// placement engine takes a snapshot and rolls the window forward. Rolling
// either clears the accumulation (decay 0, a hard per-epoch window) or
// scales it by a decay factor in (0,1), an exponentially weighted moving
// sum that favours recent traffic without forgetting the past outright.
//
// Where Runtime.MeasuredCommMatrix grows without bound over a run — and
// therefore converges to the time-averaged pattern, hiding phase changes —
// a Window sees mostly the traffic since the previous epoch, which is what
// an adaptive re-placement decision must react to.
//
// A Window is safe for concurrent use.
type Window struct {
	mu  sync.Mutex
	cur *Matrix
}

// NewWindow returns an empty window over n entities.
func NewWindow(n int) *Window {
	return &Window{cur: NewSparse(n)}
}

// AddSym accumulates one observed exchange of vol bytes between entities i
// and j onto both (i,j) and (j,i).
func (w *Window) AddSym(i, j int, vol float64) {
	w.mu.Lock()
	w.cur.AddSym(i, j, vol)
	w.mu.Unlock()
}

// Roll returns a snapshot of the accumulation and rolls the window forward:
// every entry is scaled by decay, so 0 resets the window entirely and a
// factor in (0,1) keeps a decayed memory of earlier epochs. Decay values
// outside [0,1) are treated as 0.
//
// The accumulation decays in place — the backing storage of the window is
// allocated once and reused across every epoch; only the snapshot is a copy.
func (w *Window) Roll(decay float64) *Matrix {
	if !(decay >= 0 && decay < 1) { // coerces NaN too, not only out-of-range
		decay = 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := w.cur.Clone()
	if decay == 0 {
		w.cur.zero()
	} else {
		w.cur.Scale(decay)
	}
	return snap
}

// zero clears every entry in place, keeping the allocated storage.
func (m *Matrix) zero() {
	if m.rows != nil {
		for i := range m.rows {
			m.rows[i].cols = m.rows[i].cols[:0]
			m.rows[i].vals = m.rows[i].vals[:0]
		}
		return
	}
	for i := range m.v {
		m.v[i] = 0
	}
}
