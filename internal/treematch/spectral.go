package treematch

import (
	"math"
	"sort"

	"repro/internal/comm"
)

// Spectral bisection: split the entities by the sign structure of the
// Fiedler vector (the eigenvector of the second-smallest eigenvalue of the
// graph Laplacian of the symmetrized affinity matrix). On lattice-like
// affinity graphs the Fiedler vector varies smoothly along the longest
// geometric axis, so the median split recovers the geometric halves that
// greedy seeding (which snakes into slabs) and Kernighan–Lin refinement
// (which cannot cross the energy barrier between a slab and a block layout)
// both miss — recursing yields the quadrant partitions of square stencils.

// fiedlerIters bounds the shifted power iteration. The dominant surviving
// eigen-gap of lattice Laplacians is a few percent of the shift, so a few
// hundred iterations separate the Fiedler component from the rest to well
// below the sort's tie threshold.
const fiedlerIters = 400

// fiedlerVector approximates the Fiedler vector of the matrix's symmetrized
// affinity graph with a deterministic shifted power iteration: iterate
// x ← (cI − L)x with c above the spectral radius of the Laplacian L,
// projecting out the all-ones kernel each step. The starting vector is the
// centered index ramp, so the result — including its orientation and the
// mix it converges to inside a degenerate eigenspace — is reproducible from
// the matrix alone. Returns nil for matrices too small to split.
func fiedlerVector(m *comm.Matrix) []float64 {
	n := m.Order()
	if n < 2 {
		return nil
	}
	// Symmetrized weights in ascending column order — the dense matvec
	// already skipped zero weights, so the adjacency walks the identical
	// nonzero sequence and the iteration (degree sums included) stays
	// bit-reproducible across storage modes. Memory is O(nnz).
	adj := m.SymmetricAdjacency(nil)
	off, col, w := adj.Off, adj.Col, adj.W
	deg := make([]float64, n)
	for i := range deg {
		for p := off[i]; p < off[i+1]; p++ {
			deg[i] += w[p]
		}
	}
	maxDeg := 0.0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg == 0 {
		return nil // no edges: every split is equal, keep index order
	}
	// Normalize the shift so the iteration is scale-invariant in the volumes.
	c := 2*maxDeg + 1
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) - float64(n-1)/2
	}
	y := make([]float64, n)
	for it := 0; it < fiedlerIters; it++ {
		// y = (cI - L) x = c·x - deg·x + W·x
		for i := 0; i < n; i++ {
			s := (c - deg[i]) * x[i]
			for p := off[i]; p < off[i+1]; p++ {
				s += w[p] * x[col[p]]
			}
			y[i] = s
		}
		// Project out the all-ones kernel and renormalize.
		mean := 0.0
		for _, v := range y {
			mean += v
		}
		mean /= float64(n)
		norm := 0.0
		for i := range y {
			y[i] -= mean
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			return nil // start vector was (numerically) in the kernel
		}
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
	}
	return x
}

// spectralOrder returns the entity indices of the matrix sorted by Fiedler
// value (ties towards the lower index), or the identity order when the
// graph admits no useful Fiedler vector.
func spectralOrder(m *comm.Matrix) []int {
	order := make([]int, m.Order())
	for i := range order {
		order[i] = i
	}
	f := fiedlerVector(m)
	if f == nil {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool { return f[order[a]] < f[order[b]] })
	return order
}

// spectralPartition is the spectral-bisection candidate of the equal-
// capacity portfolio: recursively halve the entities at the Fiedler
// median, falling back to direct grouping when a level's factor is odd.
// len(ids) must be divisible by k.
func spectralPartition(m *comm.Matrix, ids []int, k, passes int) ([][]int, error) {
	if k == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
	}
	sub := m
	if !isIdentity(ids, m.Order()) {
		var err error
		sub, err = m.Submatrix(ids)
		if err != nil {
			return nil, err
		}
	}
	if k%2 != 0 {
		// No even split available: group the remaining entities directly.
		local := GroupProcesses(sub, len(ids)/k, passes)
		out := make([][]int, k)
		for gi, g := range local {
			for _, e := range g {
				out[gi] = append(out[gi], ids[e])
			}
		}
		return out, nil
	}
	order := spectralOrder(sub)
	half := len(ids) / 2
	lo := make([]int, half)
	hi := make([]int, len(ids)-half)
	for i, e := range order {
		if i < half {
			lo[i] = ids[e]
		} else {
			hi[i-half] = ids[e]
		}
	}
	left, err := spectralPartition(m, lo, k/2, passes)
	if err != nil {
		return nil, err
	}
	right, err := spectralPartition(m, hi, k/2, passes)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

// spectralPartitionSized is the spectral candidate of the capacity-weighted
// partitioner: recursively split the target-size list into two contiguous
// runs of nearly equal total, and the entities at the matching Fiedler
// rank. sizes[g] is the exact size group g must come out with; the group
// order of the result matches the order of sizes.
func spectralPartitionSized(m *comm.Matrix, ids []int, sizes []int) ([][]int, error) {
	if len(sizes) == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
	}
	sub := m
	if !isIdentity(ids, m.Order()) {
		var err error
		sub, err = m.Submatrix(ids)
		if err != nil {
			return nil, err
		}
	}
	// Split the group list at the prefix whose size total is closest to
	// half; both sides keep at least one group.
	total := 0
	for _, s := range sizes {
		total += s
	}
	split, prefix, bestGap := 1, sizes[0], math.Inf(1)
	run := 0
	for g := 0; g < len(sizes)-1; g++ {
		run += sizes[g]
		if gap := math.Abs(float64(2*run - total)); gap < bestGap {
			bestGap, split, prefix = gap, g+1, run
		}
	}
	order := spectralOrder(sub)
	lo := make([]int, prefix)
	hi := make([]int, len(ids)-prefix)
	for i, e := range order {
		if i < prefix {
			lo[i] = ids[e]
		} else {
			hi[i-prefix] = ids[e]
		}
	}
	left, err := spectralPartitionSized(m, lo, sizes[:split])
	if err != nil {
		return nil, err
	}
	right, err := spectralPartitionSized(m, hi, sizes[split:])
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}
