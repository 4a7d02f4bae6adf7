package orwl

import (
	"testing"
)

// TestMeasuredCommMatrixRing validates the observed communication volumes
// of the ring program against its structure: task i consumes 8 bytes per
// iteration from its predecessor through the ring location, for every
// iteration whose input was produced by a task (all but iteration 0, which
// reads the initial payload).
func TestMeasuredCommMatrixRing(t *testing.T) {
	const n, iters = 4, 10
	rt := buildRuntime()
	ringProgram(rt, n, iters, 8)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	m := rt.MeasuredCommMatrix()
	if m.Order() != n {
		t.Fatalf("order = %d", m.Order())
	}
	for i := 0; i < n; i++ {
		succ := (i + 1) % n
		// Writer i's value is consumed by task succ in iterations 1..9 (the
		// iteration-0 read returns the preset payload, produced by nobody).
		if got, want := m.At(i, succ), float64(8*(iters-1)); got != want {
			t.Errorf("measured(%d,%d) = %v, want %v", i, succ, got, want)
		}
		// Non-neighbours never exchange data.
		opposite := (i + 2) % n
		if got := m.At(i, opposite); got != 0 {
			t.Errorf("measured(%d,%d) = %v, want 0", i, opposite, got)
		}
	}
}

// TestMeasuredMatchesStructural is the cross-validation the measured matrix
// exists for: over N iterations the observed volumes converge to N times
// the per-iteration structural affinity that the placement module predicts
// from the program shape (modulo the warm-up iteration, whose inputs are
// the preset payloads rather than produced data).
func TestMeasuredMatchesStructural(t *testing.T) {
	const n, iters = 6, 20
	rt := buildRuntime()
	ringProgram(rt, n, iters, 8)
	structural := rt.CommMatrix() // per-iteration prediction
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	measured := rt.MeasuredCommMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := structural.At(i, j) * float64(iters-1)
			if got := measured.At(i, j); got != want {
				t.Errorf("measured(%d,%d) = %v, want structural x%d = %v",
					i, j, got, iters-1, want)
			}
		}
	}
}

// TestMeasuredEmptyBeforeRun: no grants, no volumes.
func TestMeasuredEmptyBeforeRun(t *testing.T) {
	rt := buildRuntime()
	ringProgram(rt, 3, 2, 8)
	m := rt.MeasuredCommMatrix()
	if m.TotalVolume() != 0 {
		t.Errorf("pre-run measured volume = %v", m.TotalVolume())
	}
}
