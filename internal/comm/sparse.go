package comm

import "slices"

// Storage. A Matrix holds one sparseRow per entity: a CSR-style layout
// split per row, so single-entry updates stay cheap and memory follows the
// nonzeros (a stencil has O(1) of them per row, where a row-major n² array
// would need 8 TB at 1M tasks).
//
// The partitioners must stay bit-reproducible, so the iteration order is
// part of the contract: ForEachNeighbor visits a row's entries in ascending
// column order, and every float accumulation driven
// by it sees the same operands in the same order as a loop over all columns
// reading At would.

// sparseRow is one matrix row in ascending column order. AddSym adds only
// volumes ≥ 0 and never stores a zero, so every stored value is positive.
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

// put adds v to column j. An absent column is inserted only for a nonzero
// v: zeros are not materialized.
func (r *sparseRow) put(j int, v float64) {
	switch p, ok := r.find(j); {
	case ok:
		r.vals[p] += v
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

// NNZ returns the number of nonzero entries.
func (m *Matrix) NNZ() int {
	nnz := 0
	for i := range m.rows {
		nnz += len(m.rows[i].cols)
	}
	return nnz
}

// RowNNZ returns the stored entries of row i, the calls ForEachNeighbor(i)
// makes.
func (m *Matrix) RowNNZ(i int) int { return len(m.rows[i].cols) }

// ForEachNeighbor calls fn for every nonzero entry (i,j) of row i, in
// ascending column order. The diagonal entry is included when nonzero
// (aggregated matrices carry intra-group volume there). fn must not mutate
// the matrix.
func (m *Matrix) ForEachNeighbor(i int, fn func(j int, v float64)) {
	r := &m.rows[i]
	for p, c := range r.cols {
		fn(int(c), r.vals[p])
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
// in ascending entity order; it fills the rows of st's matrix, whose cells
// st.cols and st.vals have room for. It builds output row a from group a
// alone: the members in ascending order, each row's nonzeros in ascending
// column order, summed into a k-length accumulator whose touched cells,
// sorted by column, become the row. Every output cell thus accumulates its
// contributions in exactly the order Aggregate's nested At loop would —
// adding zero being exact, the results are bit-identical.
func (m *Matrix) aggregateSorted(st *Storage, groups [][]int) {
	k := len(groups)
	grp := grow(st.grp, m.n)
	for a, ga := range groups {
		for _, e := range ga {
			grp[e] = int32(a)
		}
	}
	acc := grow(st.acc, k)
	seen := grow(st.seen, k)
	clear(seen)
	touched := st.touched[:0]
	agg, q := &st.m, 0
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
		slices.Sort(touched)
		lo := q
		for _, b := range touched {
			st.cols[q], st.vals[q], seen[b] = b, acc[b], false
			q++
		}
		agg.rows[a] = sparseRow{cols: st.cols[lo:q:q], vals: st.vals[lo:q:q]}
	}
	st.grp, st.acc, st.seen, st.touched = grp, acc, seen, touched
}
