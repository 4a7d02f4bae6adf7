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

func (r *sparseRow) set(j int, v float64) {
	p, ok := r.find(j)
	if ok {
		r.vals[p] = v
		return
	}
	if v == 0 {
		return // don't materialize zeros
	}
	r.cols = append(r.cols, 0)
	r.vals = append(r.vals, 0)
	copy(r.cols[p+1:], r.cols[p:])
	copy(r.vals[p+1:], r.vals[p:])
	r.cols[p] = int32(j)
	r.vals[p] = v
}

func (r *sparseRow) add(j int, v float64) {
	p, ok := r.find(j)
	if ok {
		r.vals[p] += v
		return
	}
	if v == 0 {
		return
	}
	r.cols = append(r.cols, 0)
	r.vals = append(r.vals, 0)
	copy(r.cols[p+1:], r.cols[p:])
	copy(r.vals[p+1:], r.vals[p:])
	r.cols[p] = int32(j)
	r.vals[p] = v
}

func (r *sparseRow) clone() sparseRow {
	return sparseRow{
		cols: append([]int32(nil), r.cols...),
		vals: append([]float64(nil), r.vals...),
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

// colValSorter sorts a (cols, vals) pair slice by column. Used by Submatrix,
// where the entity permutation scrambles the stored column order.
type colValSorter struct {
	cols []int32
	vals []float64
}

func (s *colValSorter) Len() int           { return len(s.cols) }
func (s *colValSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *colValSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
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
