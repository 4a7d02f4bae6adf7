package kernels

// The Livermore Kernel 23 ("2-D implicit hydrodynamics fragment", LinPack /
// Livermore Fortran Kernels) updates the interior of ZA with a 5-point
// implicit relaxation:
//
//	qa        = za[k+1][j]·zr + za[k-1][j]·zb + za[k][j+1]·zu + za[k][j-1]·zv + zz
//	za[k][j] += 0.175·(qa − za[k][j])
//
// The classic kernel sweeps in place (Gauss–Seidel style: updated rows feed
// later rows within the same sweep). The ORWL block decomposition of the
// paper exchanges halos once per iteration, which parallelizes the
// two-buffer Jacobi variant; that variant is the one implemented here, and
// the parallel implementation is validated element-wise against RunJacobi.

// Relax is the relaxation factor of Kernel 23.
const Relax = 0.175

// Cell computes one Kernel 23 update from the centre value c and its four
// old neighbours (n = row above, s = row below, e = column right, w =
// column left), using the coefficient arrays of g at global row gk, column
// gj. It is the CellFunc of the LK23 stencil.
func (g *Grid) Cell(c, n, s, e, w float64, gk, gj int) float64 {
	i := g.Idx(gk, gj)
	qa := float64(s*g.ZR[i]) + float64(n*g.ZB[i]) + float64(e*g.ZU[i]) + float64(w*g.ZV[i]) + g.ZZ[i]
	return c + float64(Relax*(qa-c))
}

// CellFunc is a 5-point stencil update: new centre value from the old
// centre and neighbour values at global coordinates (gk, gj).
type CellFunc func(c, n, s, e, w float64, gk, gj int) float64

// Costs describes the per-cell cost of one stencil sweep for the machine
// simulator: arithmetic operations and the bytes of memory traffic behind
// each updated cell (streaming reads and the write-back).
type Costs struct {
	FlopsPerCell float64
	BytesPerCell float64
}

// LK23Costs are the sweep costs of Kernel 23: 4 multiplies and 4 adds for
// qa, plus subtract/multiply/add for the relaxation = 11 flops; 7 streams
// (ZA read+write and 5 coefficient arrays) of 8 bytes each.
var LK23Costs = Costs{FlopsPerCell: 11, BytesPerCell: 8 * Streams}

// StepJacobi writes one two-buffer sweep of the given stencil into dst.ZA
// from src.ZA. Boundary cells are copied unchanged. dst and src must have
// the same shape and may not alias.
func StepJacobi(dst, src *Grid, cell CellFunc) {
	c := src.Cols
	copy(dst.ZA[:c], src.ZA[:c])                           // first row
	copy(dst.ZA[(src.Rows-1)*c:], src.ZA[(src.Rows-1)*c:]) // last row
	for k := 1; k < src.Rows-1; k++ {
		row := k * c
		dst.ZA[row] = src.ZA[row]         // first column
		dst.ZA[row+c-1] = src.ZA[row+c-1] // last column
		for j := 1; j < c-1; j++ {
			i := row + j
			dst.ZA[i] = cell(src.ZA[i], src.ZA[i-c], src.ZA[i+c], src.ZA[i+1], src.ZA[i-1], k, j)
		}
	}
}

// RunJacobi runs iters two-buffer sweeps of the stencil starting from g and
// returns the resulting grid; g itself is not modified. This is the
// sequential reference the ORWL implementation must match
// element-for-element.
func RunJacobi(g *Grid, cell CellFunc, iters int) *Grid {
	cur := g.Clone()
	next := g.Clone()
	for it := 0; it < iters; it++ {
		StepJacobi(next, cur, cell)
		cur, next = next, cur
	}
	return cur
}

// RunJacobiLK23 is RunJacobi specialized to the grid's own Kernel 23
// coefficients.
func RunJacobiLK23(g *Grid, iters int) *Grid {
	return RunJacobi(g, g.Cell, iters)
}
