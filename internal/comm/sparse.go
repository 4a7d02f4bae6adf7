package comm

import "slices"

// Sparse storage mode. A Matrix is either dense (row-major []float64, the
// historical representation) or sparse (per-row sorted adjacency, a CSR-style
// layout split per row so single-entry updates stay cheap). Both modes expose
// the same method set and — crucially for the partitioners, which must stay
// bit-reproducible — the same iteration order: ForEachNeighbor visits entries
// in ascending column order and skips zero values in both modes, so every
// float accumulation driven by it sees the same operands in the same order
// regardless of representation.
//
// Stencil-class workloads have O(1) nonzeros per row, so the sparse mode
// turns the O(n²) memory wall of dense matrices (8 TB at 1M tasks) into O(n).

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

// NewSparse returns an order-n zero matrix in sparse mode. Memory grows with
// the number of nonzero entries instead of n².
func NewSparse(n int) *Matrix {
	if n < 0 {
		panic("comm: negative matrix order")
	}
	return &Matrix{n: n, rows: make([]sparseRow, n)}
}

// IsSparse reports whether the matrix uses the sparse representation.
func (m *Matrix) IsSparse() bool { return m.rows != nil }

// NNZ returns the number of nonzero entries (explicit zeros in sparse
// storage are not counted; for a dense matrix the full storage is scanned).
func (m *Matrix) NNZ() int {
	nnz := 0
	if m.rows != nil {
		for i := range m.rows {
			for _, v := range m.rows[i].vals {
				if v != 0 {
					nnz++
				}
			}
		}
		return nnz
	}
	for _, v := range m.v {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// ForEachNeighbor calls fn for every nonzero entry (i,j) of row i, in
// ascending column order. The diagonal entry is included when nonzero
// (aggregated matrices carry intra-group volume there). Both storage modes
// yield the identical (j, v) sequence, which is what keeps sparse-path float
// accumulations bit-identical to the dense path. fn must not mutate the
// matrix.
func (m *Matrix) ForEachNeighbor(i int, fn func(j int, v float64)) {
	if m.rows != nil {
		r := &m.rows[i]
		for p, c := range r.cols {
			if v := r.vals[p]; v != 0 {
				fn(int(c), v)
			}
		}
		return
	}
	row := m.v[i*m.n : (i+1)*m.n]
	for j, v := range row {
		if v != 0 {
			fn(j, v)
		}
	}
}

// ToDense returns a dense-mode copy of the matrix (a plain Clone when the
// matrix is already dense).
func (m *Matrix) ToDense() *Matrix {
	if m.rows == nil {
		return m.Clone()
	}
	d := New(m.n)
	for i := range m.rows {
		r := &m.rows[i]
		for p, c := range r.cols {
			d.v[i*m.n+int(c)] = r.vals[p]
		}
	}
	if m.labels != nil {
		d.labels = append([]string(nil), m.labels...)
	}
	return d
}

// ToSparse returns a sparse-mode copy of the matrix (a plain Clone when the
// matrix is already sparse).
func (m *Matrix) ToSparse() *Matrix {
	if m.rows != nil {
		return m.Clone()
	}
	s := NewSparse(m.n)
	for i := 0; i < m.n; i++ {
		row := m.v[i*m.n : (i+1)*m.n]
		nnz := 0
		for _, v := range row {
			if v != 0 {
				nnz++
			}
		}
		if nnz == 0 {
			continue
		}
		r := &s.rows[i]
		r.cols = make([]int32, 0, nnz)
		r.vals = make([]float64, 0, nnz)
		for j, v := range row {
			if v != 0 {
				r.cols = append(r.cols, int32(j))
				r.vals = append(r.vals, v)
			}
		}
	}
	if m.labels != nil {
		s.labels = append([]string(nil), m.labels...)
	}
	return s
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

// aggregateSparse is the sparse fast path of Aggregate, valid when every
// group is in ascending entity order (all in-repo callers sort their groups).
// It builds output row a from group a alone: the members in ascending order,
// each row's nonzeros in ascending column order, summed into a k-length
// accumulator whose touched cells, sorted by column, become the row. Every
// output cell thus accumulates its contributions in exactly the order the
// dense nested loop would — adding zero being exact, the results are
// bit-identical. A cell some nonzero touched is stored even when its sum is
// zero.
func (m *Matrix) aggregateSparse(groups [][]int) *Matrix {
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
	agg := NewSparse(k)
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
