package treematch

import (
	"fmt"

	"repro/internal/comm"
)

// Space-filling-curve embedding for grid-like fabrics. A torus prices
// communication by routed hop distance, so an assignment that lays a
// communication chain along a curve visiting every torus cell exactly once —
// with consecutive cells always adjacent — keeps heavy neighbours one hop
// apart. A Hilbert curve does this with good locality on power-of-two square
// grids; a snake (boustrophedon) walk covers every other shape, still with
// unit steps between consecutive cells.

// SFCOrder returns a space-filling visiting order of the cells of a grid
// with the given dimensions, as row-major cell indices (last dimension
// fastest, matching the torus node numbering): a Hilbert curve on a
// power-of-two square 2-D grid, a snake walk otherwise. Consecutive cells of
// the order are always grid-adjacent (distance one, ignoring wrap).
func SFCOrder(dims []int) []int {
	if len(dims) == 2 && dims[0] == dims[1] && isPowerOfTwo(dims[0]) {
		n := dims[0]
		order := make([]int, n*n)
		for d := range order {
			x, y := hilbertD2XY(n, d)
			order[d] = x*n + y
		}
		return order
	}
	cells := snakeCells(dims)
	order := make([]int, len(cells))
	for i, c := range cells {
		id := 0
		for k := range dims {
			id = id*dims[k] + c[k]
		}
		order[i] = id
	}
	return order
}

func isPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// hilbertD2XY converts a distance along the order-n Hilbert curve (n a power
// of two) into grid coordinates, by the standard bit-twiddling construction.
func hilbertD2XY(n, d int) (x, y int) {
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// snakeCells walks an arbitrary grid boustrophedon: the innermost dimensions
// reverse direction on every step of the dimension above, so consecutive
// cells always differ by one in exactly one coordinate.
func snakeCells(dims []int) [][]int {
	if len(dims) == 0 {
		return [][]int{{}}
	}
	if len(dims) == 1 {
		out := make([][]int, dims[0])
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}
	sub := snakeCells(dims[1:])
	out := make([][]int, 0, dims[0]*len(sub))
	for i := 0; i < dims[0]; i++ {
		if i%2 == 0 {
			for _, c := range sub {
				out = append(out, append([]int{i}, c...))
			}
		} else {
			for k := len(sub) - 1; k >= 0; k-- {
				out = append(out, append([]int{i}, sub[k]...))
			}
		}
	}
	return out
}

// SFCSeed builds a candidate assignment (entity → grid cell, as row-major
// indices) for AssignByDistance on a grid-like fabric: the entities are
// chained by accumulated affinity (affinityOrder) and laid out along the
// space-filling curve, so heavy partners land on adjacent cells. The matrix
// order must equal the cell count.
func SFCSeed(dims []int, m *comm.Matrix) ([]int, error) {
	total := 1
	for _, d := range dims {
		total *= d
	}
	if m.Order() != total {
		return nil, fmt.Errorf("treematch: SFCSeed maps %d entities onto a %d-cell grid", m.Order(), total)
	}
	var ds distanceSet
	aff, vol := ds.pairAffinity(m)
	chain := ds.affinityOrder(aff, vol)
	curve := SFCOrder(dims)
	seed := make([]int, total)
	for k, e := range chain {
		seed[e] = curve[k]
	}
	return seed, nil
}
