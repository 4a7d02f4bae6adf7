package comm

import "slices"

// Storage. A Matrix holds one sparseRow per entity: a CSR-style layout
// split per row, so single-entry updates stay cheap and memory follows the
// nonzeros (a stencil has O(1) of them per row, where a row-major n² array
// would need 8 TB at 1M tasks).
//
// The partitioners must stay bit-reproducible, so the iteration order is
// part of the contract: ForEachNeighbor visits a row's entries in ascending
// column order and skips zero values, and every float accumulation driven
// by it sees the same operands in the same order as a loop over all columns
// reading At would.

// sparseRow is one matrix row in ascending column order. Explicit zeros may
// be stored (Set(i,j,0) on an existing entry); iteration skips them, so they
// are semantically invisible.
type sparseRow struct {
	cols []int32
	vals []float64
}

// find returns the position of column j and whether it is present; when
// absent, the position is the insertion point that keeps cols sorted.
func (r *sparseRow) find(j int) (int, bool) {
	c := int32(j)
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.cols) && r.cols[lo] == c
}

func (r *sparseRow) at(j int) float64 {
	if p, ok := r.find(j); ok {
		return r.vals[p]
	}
	return 0
}

// walkTo reads column c from position p on: it returns the position past
// column c, the entry there (0 if absent, as at reads it), and whether
// every entry it stepped over in a column below c reads 0.
func (r *sparseRow) walkTo(p, c int) (int, float64, bool) {
	for ; p < len(r.cols) && int(r.cols[p]) < c; p++ {
		if r.vals[p] != 0 {
			return p, 0, false
		}
	}
	if p < len(r.cols) && int(r.cols[p]) == c {
		return p + 1, r.vals[p], true
	}
	return p, 0, true
}

// put stores v at column j (add: adds it to the stored value). An absent
// column is inserted only for a nonzero v: zeros are not materialized.
func (r *sparseRow) put(j int, v float64, add bool) {
	switch p, ok := r.find(j); {
	case ok && add:
		r.vals[p] += v
	case ok:
		r.vals[p] = v
	case v != 0:
		r.cols = append(r.cols, 0)
		r.vals = append(r.vals, 0)
		copy(r.cols[p+1:], r.cols[p:])
		copy(r.vals[p+1:], r.vals[p:])
		r.cols[p] = int32(j)
		r.vals[p] = v
	}
}

// packRows copies the rows of src into dst[:len(src)], in one backing
// array per field; each row is capped to its own window, so growing one row
// reallocates it instead of overwriting the next. dst may be src: the sweeps
// over a matrix built in bulk then stream through memory instead of chasing
// separately allocated rows.
func packRows(dst, src []sparseRow) {
	nnz := 0
	for i := range src {
		nnz += len(src[i].cols)
	}
	cols, vals := make([]int32, nnz), make([]float64, nnz)
	q := 0
	for i := range src {
		lo := q
		q += copy(cols[q:], src[i].cols)
		copy(vals[lo:], src[i].vals)
		dst[i] = sparseRow{cols: cols[lo:q:q], vals: vals[lo:q:q]}
	}
}

// NNZ returns the number of nonzero entries (stored zeros are not counted).
func (m *Matrix) NNZ() int {
	nnz := 0
	for i := range m.rows {
		for _, v := range m.rows[i].vals {
			if v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

// ForEachNeighbor calls fn for every nonzero entry (i,j) of row i, in
// ascending column order. The diagonal entry is included when nonzero
// (aggregated matrices carry intra-group volume there). fn must not mutate
// the matrix.
func (m *Matrix) ForEachNeighbor(i int, fn func(j int, v float64)) {
	r := &m.rows[i]
	for p, c := range r.cols {
		if v := r.vals[p]; v != 0 {
			fn(int(c), v)
		}
	}
}

// rowSorted reports whether ids is strictly ascending.
func rowSorted(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// aggregateSorted is the fast path of Aggregate, valid when every group is
// in ascending entity order. It builds output row a from group a alone: the
// members in ascending order, each row's nonzeros in ascending column order,
// summed into a k-length accumulator whose touched cells, sorted by column,
// become the row. Every output cell thus accumulates its contributions in
// exactly the order Aggregate's nested At loop would — adding zero being
// exact, the results are bit-identical. A cell some nonzero touched is
// stored even when its sum is zero.
func (m *Matrix) aggregateSorted(groups [][]int) *Matrix {
	k := len(groups)
	grp := make([]int32, m.n)
	for a, ga := range groups {
		for _, e := range ga {
			grp[e] = int32(a)
		}
	}
	acc := make([]float64, k)
	seen := make([]bool, k)
	var touched []int32
	agg := New(k)
	for a, ga := range groups {
		touched = touched[:0]
		for _, i := range ga {
			m.ForEachNeighbor(i, func(j int, v float64) {
				b := grp[j]
				if !seen[b] {
					seen[b], acc[b] = true, 0
					touched = append(touched, b)
				}
				acc[b] += v
			})
		}
		if len(touched) == 0 {
			continue
		}
		slices.Sort(touched)
		r := &agg.rows[a]
		r.cols = append([]int32(nil), touched...)
		r.vals = make([]float64, len(touched))
		for p, b := range r.cols {
			r.vals[p], seen[b] = acc[b], false
		}
	}
	return agg
}
