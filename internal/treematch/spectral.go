package treematch

import (
	"math"
	"slices"

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

// spectralScratch is the spectral candidates' working memory, part of the
// candidateSet passed down their recursion: the symmetrized adjacency and
// the power iteration's vectors. Grow-only; the root level is the largest,
// so the levels below it allocate nothing here.
type spectralScratch struct {
	adj comm.SymAdjacency
	f64 []float64
}

// fiedlerVector approximates the Fiedler vector of the matrix's symmetrized
// affinity graph with a deterministic shifted power iteration: iterate
// x ← (cI − L)x with c above the spectral radius of the Laplacian L,
// projecting out the all-ones kernel each step. The starting vector is the
// centered index ramp, so the result — including its orientation and the
// mix it converges to inside a degenerate eigenspace — is reproducible from
// the matrix alone. Returns nil for matrices too small to split. The result
// lives in sc until the next call.
//
// An iterate is a function of the one before it alone, so once an iterate
// repeats one of the two before it bit for bit, every later one is known:
// equal to its predecessor, the sequence is fixed; equal to the one before
// that, it alternates. The loop then returns the iterate the full
// fiedlerIters sweeps would end on, and every floating-point operation it
// does run is the full loop's, in the same order (spectral_oracle_test.go).
func fiedlerVector(m *comm.Matrix, sc *spectralScratch) []float64 {
	n := m.Order()
	if n < 2 {
		return nil
	}
	// Symmetrized weights in ascending column order — the dense matvec
	// already skipped zero weights, so the adjacency walks the identical
	// nonzero sequence and the iteration (degree sums included) stays
	// bit-reproducible across storage modes. Memory is O(nnz).
	adj := m.SymmetricAdjacency(&sc.adj)
	off, col, w := adj.Off, adj.Col, adj.W
	if cap(sc.f64) < 4*n {
		sc.f64 = make([]float64, 4*n)
	}
	f := sc.f64
	diag, x, y, prev := f[:n:n], f[n:2*n:2*n], f[2*n:3*n:3*n], f[3*n:4*n:4*n]
	maxDeg := 0.0
	for i := range diag {
		d := 0.0
		for p := off[i]; p < off[i+1]; p++ {
			d += w[p]
		}
		diag[i] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg == 0 {
		return nil // no edges: every split is equal, keep index order
	}
	// Normalize the shift so the iteration is scale-invariant in the volumes.
	c := 2*maxDeg + 1
	for i, d := range diag {
		diag[i] = c - d
		x[i] = float64(i) - float64(float64(n-1)/2)
	}
	for it := 0; it < fiedlerIters; it++ {
		// y = (cI - L) x = c·x - deg·x + W·x, summed for the mean as it goes.
		mean := 0.0
		for i := 0; i < n; i++ {
			s := diag[i] * x[i]
			for p := off[i]; p < off[i+1]; p++ {
				s += float64(w[p] * x[col[p]])
			}
			y[i] = s
			mean += s
		}
		// Project out the all-ones kernel and renormalize.
		mean /= float64(n)
		norm := 0.0
		for i := range y {
			y[i] -= mean
			norm += float64(y[i] * y[i])
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			return nil // start vector was (numerically) in the kernel
		}
		fixed, alternating := true, it > 0
		for i := range y {
			y[i] /= norm
			b := math.Float64bits(y[i])
			fixed = fixed && b == math.Float64bits(x[i])
			alternating = alternating && b == math.Float64bits(prev[i])
		}
		switch {
		case fixed:
			return y
		case alternating && (fiedlerIters-it-1)%2 == 0:
			return y // iterate it+1 has the last sweep's parity
		case alternating:
			return x
		}
		prev, x, y = x, y, prev
	}
	return x
}

// spectralOrder returns the entity indices of the matrix sorted by Fiedler
// value (ties towards the lower index), or the identity order when the
// graph admits no useful Fiedler vector.
func spectralOrder(m *comm.Matrix, sc *spectralScratch) []int {
	order := identityIDs(m.Order())
	f := fiedlerVector(m, sc)
	if f == nil {
		return order
	}
	slices.SortStableFunc(order, func(a, b int) int { return descending(f[b], f[a]) })
	return order
}

// SpectralMemo remembers the spectral orders of one matrix by entity subset,
// for a caller that partitions the same matrix under many capacity views —
// the scheduler probes one blocked job against many hypothetical free-slot
// views. An order depends on the matrix and the exact ids sequence alone,
// never on the sizes it is split into, so a memo never goes stale. The zero
// value is ready; it binds to the first matrix it serves and any other
// matrix bypasses it. Entries keep the slices the recursion allocated and
// are found by a linear scan: a caller that never repeats a subset pays one
// append per order.
//
// Not safe for concurrent use, and it takes no lock: one goroutine at a time
// touches it, and a happens-before edge orders each one after the last. The
// scheduler's lookahead warms a job's memo (SpectralWarmer) before it closes
// the job's ready channel, and the job's partition calls read it only after
// receiving from that channel. Within a call only the spectral candidate
// touches it: on the calling goroutine when the portfolio runs its
// candidates one after another, so program order ties one call to the
// next; on that candidate's goroutine from concurrentMinOrder on, where the
// portfolio's WaitGroup orders one call's accesses before the next call's.
type SpectralMemo struct {
	m       *comm.Matrix
	entries []spectralEntry
}

type spectralEntry struct{ ids, order []int }

// SpectralWarmer computes root spectral orders ahead of the partition calls
// that read them, reusing one scratch for every matrix it warms. The zero
// value is ready.
type SpectralWarmer struct{ cs candidateSet }

// Warm puts the spectral order of the whole of m, the first order every
// spectral candidate on m asks for, into memo, which binds to m. Orders
// above multilevelMinOrder are skipped: no portfolio runs there.
func (w *SpectralWarmer) Warm(memo *SpectralMemo, m *comm.Matrix) {
	if m.Order() <= multilevelMinOrder {
		// The identity subset induces m itself, so order cannot fail.
		_, _ = memo.order(m, identityIDs(m.Order()), &w.cs)
	}
}

// order returns spectralOrder of the submatrix ids induce on m, from the
// memo when it holds it (a nil memo always computes), computing it in cs.
// Neither ids nor the result may be modified afterwards.
func (memo *SpectralMemo) order(m *comm.Matrix, ids []int, cs *candidateSet) ([]int, error) {
	if memo != nil && memo.m == nil {
		memo.m = m
	}
	use := memo != nil && memo.m == m
	if use {
		for _, e := range memo.entries {
			if slices.Equal(e.ids, ids) {
				return e.order, nil
			}
		}
	}
	sub, err := induced(m, ids, &cs.sub)
	if err != nil {
		return nil, err
	}
	order := spectralOrder(sub, &cs.spectral)
	if use {
		memo.entries = append(memo.entries, spectralEntry{ids, order})
	}
	return order, nil
}

// induced is the submatrix ids induce on m, built into *st (made on first
// use; valid until it is next used), or m itself when ids is exactly
// 0..m.Order()-1.
func induced(m *comm.Matrix, ids []int, st **comm.Storage) (*comm.Matrix, error) {
	if isIdentity(ids, m.Order()) {
		return m, nil
	}
	return m.SubmatrixIn(storage(st), ids)
}

// splitByOrder deals ids in the given order: the first cut go to lo, the
// rest to hi, two windows of one array (lo capped at its length).
func splitByOrder(ids, order []int, cut int) (lo, hi []int) {
	both := make([]int, len(ids))
	lo, hi = both[:cut:cut], both[cut:]
	for i, e := range order {
		if i < cut {
			lo[i] = ids[e]
		} else {
			hi[i-cut] = ids[e]
		}
	}
	return lo, hi
}

// spectralPartition is the spectral-bisection candidate of the equal-
// capacity portfolio: recursively halve the entities at the Fiedler
// median, falling back to direct grouping when a level's factor is odd.
// len(ids) must be divisible by k. It runs in cs.
func spectralPartition(m *comm.Matrix, ids []int, k, passes int, memo *SpectralMemo, cs *candidateSet) ([][]int, error) {
	if k == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
	}
	if k%2 != 0 {
		// No even split available: group the remaining entities directly.
		sub, err := induced(m, ids, &cs.sub)
		if err != nil {
			return nil, err
		}
		return relabel(groupProcesses(sub, len(ids)/k, passes, &cs.fill), ids), nil
	}
	order, err := memo.order(m, ids, cs)
	if err != nil {
		return nil, err
	}
	lo, hi := splitByOrder(ids, order, len(ids)/2)
	left, err := spectralPartition(m, lo, k/2, passes, memo, cs)
	if err != nil {
		return nil, err
	}
	right, err := spectralPartition(m, hi, k/2, passes, memo, cs)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

// spectralPartitionSized is the spectral candidate of the capacity-weighted
// partitioner: recursively split the target-size list into two contiguous
// runs of nearly equal total, and the entities at the matching Fiedler
// rank. sizes[g] is the exact size group g must come out with; the group
// order of the result matches the order of sizes. It runs in cs.
func spectralPartitionSized(m *comm.Matrix, ids []int, sizes []int, memo *SpectralMemo, cs *candidateSet) ([][]int, error) {
	if len(sizes) == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
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
	order, err := memo.order(m, ids, cs)
	if err != nil {
		return nil, err
	}
	lo, hi := splitByOrder(ids, order, prefix)
	left, err := spectralPartitionSized(m, lo, sizes[:split], memo, cs)
	if err != nil {
		return nil, err
	}
	right, err := spectralPartitionSized(m, hi, sizes[split:], memo, cs)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}
