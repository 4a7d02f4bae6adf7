package kernels

import (
	"math"
	"testing"
)

func TestNewGridDeterministic(t *testing.T) {
	a := NewGrid(8, 8, 42)
	b := NewGrid(8, 8, 42)
	if !a.Equal(b, 0) {
		t.Errorf("same seed produced different grids")
	}
	c := NewGrid(8, 8, 43)
	if a.Equal(c, 0) {
		t.Errorf("different seeds produced equal grids")
	}
}

func TestGridTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for 2x2 grid")
		}
	}()
	NewGrid(2, 2, 1)
}

func TestCloneSharesCoefficients(t *testing.T) {
	g := NewGrid(6, 6, 1)
	c := g.Clone()
	c.ZA[7] = 99
	if g.ZA[7] == 99 {
		t.Errorf("Clone shares ZA")
	}
	if &g.ZR[0] != &c.ZR[0] {
		t.Errorf("Clone copied coefficient arrays")
	}
}

func TestJacobiMatchesManualCell(t *testing.T) {
	g := NewGrid(5, 5, 3)
	next := RunJacobiLK23(g, 1)
	// Manually recompute cell (2,2).
	i := g.Idx(2, 2)
	qa := g.At(3, 2)*g.ZR[i] + g.At(1, 2)*g.ZB[i] + g.At(2, 3)*g.ZU[i] + g.At(2, 1)*g.ZV[i] + g.ZZ[i]
	want := g.At(2, 2) + Relax*(qa-g.At(2, 2))
	if got := next.At(2, 2); got != want {
		t.Errorf("cell (2,2) = %v, want %v", got, want)
	}
	// Boundaries unchanged.
	if next.At(0, 3) != g.At(0, 3) || next.At(4, 4) != g.At(4, 4) {
		t.Errorf("Jacobi modified boundary")
	}
	// Input untouched.
	g2 := NewGrid(5, 5, 3)
	if !g.Equal(g2, 0) {
		t.Errorf("RunJacobi modified its input")
	}
}

func TestHeatCellStable(t *testing.T) {
	cell := HeatCell(0.25)
	// Uniform field is a fixed point.
	if got := cell(3, 3, 3, 3, 3, 1, 1); got != 3 {
		t.Errorf("uniform heat = %v, want 3", got)
	}
	// Averaging: centre 0 surrounded by 4 -> alpha*16.
	if got := cell(0, 4, 4, 4, 4, 1, 1); got != 4 {
		t.Errorf("heat step = %v, want 4", got)
	}
	g := NewGrid(12, 12, 5)
	res := RunJacobi(g, HeatCell(0.2), 50)
	// Diffusion contracts towards the boundary-constrained harmonic
	// profile; values must stay within the initial bounds.
	for i, v := range res.ZA {
		if v < -0.001 || v > 1.001 {
			t.Errorf("heat cell %d escaped [0,1]: %v", i, v)
			break
		}
	}
}

func TestMaxAbsDiffAndChecksum(t *testing.T) {
	a := NewGrid(4, 4, 1)
	b := a.Clone()
	if a.MaxAbsDiff(b) != 0 {
		t.Errorf("identical grids differ")
	}
	b.ZA[5] += 0.5
	if d := a.MaxAbsDiff(b); math.Abs(d-0.5) > 1e-15 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", d)
	}
	if a.Equal(b, 0.4) {
		t.Errorf("Equal ignored 0.5 difference at tol 0.4")
	}
	if !a.Equal(b, 0.6) {
		t.Errorf("Equal rejected 0.5 difference at tol 0.6")
	}
}
