// Package kernels implements the computational workloads of the paper's
// evaluation: the Livermore Kernel 23 (a 2-D implicit hydrodynamics
// fragment) with its ORWL block decomposition into one main operation and
// eight frontier operations per block (paper §III), plus a 5-point heat
// stencil used as a second example workload.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
)

// Grid holds the state of the Livermore Kernel 23: the solution array ZA
// and the five coefficient arrays ZR, ZB, ZU, ZV, ZZ, all row-major
// Rows×Cols. Kernel sweeps update only the interior; the boundary rows and
// columns are fixed (Dirichlet conditions).
type Grid struct {
	Rows, Cols int
	ZA         []float64
	ZR, ZB     []float64
	ZU, ZV     []float64
	ZZ         []float64
}

// Streams is the number of arrays a kernel sweep touches per cell: read ZA
// (plus neighbours already in cache), write ZA, and read the five
// coefficient arrays.
const Streams = 7

// NewGrid allocates a grid with deterministic pseudo-random contents: ZA in
// [0,1), damping coefficients summing below 1 so iterations stay bounded.
func NewGrid(rows, cols int, seed int64) *Grid {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("kernels: grid %dx%d too small (needs an interior)", rows, cols))
	}
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	g := &Grid{
		Rows: rows, Cols: cols,
		ZA: make([]float64, n),
		ZR: make([]float64, n), ZB: make([]float64, n),
		ZU: make([]float64, n), ZV: make([]float64, n),
		ZZ: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		g.ZA[i] = rng.Float64()
		// Keep |zr|+|zb|+|zu|+|zv| < 1 so the implicit relaxation is stable.
		g.ZR[i] = 0.20 * rng.Float64()
		g.ZB[i] = 0.20 * rng.Float64()
		g.ZU[i] = 0.20 * rng.Float64()
		g.ZV[i] = 0.20 * rng.Float64()
		g.ZZ[i] = 0.10 * rng.Float64()
	}
	return g
}

// Idx returns the flat index of row k, column j.
func (g *Grid) Idx(k, j int) int { return k*g.Cols + j }

// At returns ZA[k][j].
func (g *Grid) At(k, j int) float64 { return g.ZA[g.Idx(k, j)] }

// Clone returns a deep copy of the solution array; the coefficient arrays
// are shared (they are never written).
func (g *Grid) Clone() *Grid {
	c := *g
	c.ZA = append([]float64(nil), g.ZA...)
	return &c
}

// Equal reports whether two grids have identical shape and ZA contents
// within the given absolute tolerance (0 for bit equality).
func (g *Grid) Equal(o *Grid, tol float64) bool {
	if g.Rows != o.Rows || g.Cols != o.Cols {
		return false
	}
	for i := range g.ZA {
		if d := math.Abs(g.ZA[i] - o.ZA[i]); d > tol || math.IsNaN(d) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute ZA difference between two grids
// of identical shape.
func (g *Grid) MaxAbsDiff(o *Grid) float64 {
	var mx float64
	for i := range g.ZA {
		if d := math.Abs(g.ZA[i] - o.ZA[i]); d > mx {
			mx = d
		}
	}
	return mx
}
