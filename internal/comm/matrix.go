// Package comm represents the communication (affinity) matrices that drive
// topology-aware placement.
//
// Entry (i,j) of a matrix is the data volume, in bytes, exchanged between
// computing entities i and j over the lifetime of the application (or of one
// steady-state iteration; TreeMatch only cares about relative weights). The
// ORWL runtime extracts such a matrix automatically from the way tasks,
// handles and locations are composed (see internal/placement); this package
// also provides synthetic generators for the workloads used in the paper's
// evaluation and in tests.
//
// # The structural matrix is not the runtime's bill
//
// The extracted matrix is structural: it attributes a pairwise volume
// (essentially min of the handle volumes involved) to every pair of tasks
// that share a location. The simulator prices something subtly different:
// the B-location FIFO charges the full write-handle volume against the PU
// acquiring from the previous holder, and a location whose readers span
// several cluster nodes bounces the lock — and the data — across the fabric
// once per foreign node per iteration, a cost the pairwise matrix cannot
// express. Partitions therefore optimize a slightly different objective
// than the simulator prices: two placements with identical byte×hop cost
// can differ in makespan when one spreads a location's readers over more
// nodes (observed concretely on 8×8 stencils split four ways, where an
// equal-cut slab layout beats a lower-cut center-block layout). The
// measured epoch window (Window) narrows the gap — it records granted
// handoffs, not declarations — but per-pair attribution remains pairwise.
// Reconciling the two models is an open ROADMAP item ("Structural matrix vs
// runtime charges").
package comm

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Matrix is a square communication matrix. The zero value is unusable; use
// New (dense) or NewSparse. Methods panic on out-of-range indices, mirroring
// slice semantics. Exactly one of v and rows is non-nil; see sparse.go for
// the sparse mode and the bit-reproducibility contract shared by both.
type Matrix struct {
	n      int
	v      []float64   // dense mode: row-major, length n*n
	rows   []sparseRow // sparse mode: per-row sorted adjacency, length n
	labels []string    // optional entity names, length n when present
}

// New returns an order-n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("comm: negative matrix order")
	}
	return &Matrix{n: n, v: make([]float64, n*n)}
}

// Order returns the number of computing entities (the matrix dimension).
func (m *Matrix) Order() int { return m.n }

// At returns the volume exchanged between entities i and j. In sparse mode
// this is a binary search over row i's nonzeros; hot loops should prefer
// ForEachNeighbor.
func (m *Matrix) At(i, j int) float64 {
	if m.rows != nil {
		if i < 0 || i >= m.n || j < 0 || j >= m.n {
			panic("comm: index out of range")
		}
		return m.rows[i].at(j)
	}
	return m.v[i*m.n+j]
}

// Set assigns the volume exchanged between entities i and j.
func (m *Matrix) Set(i, j int, vol float64) {
	if m.rows != nil {
		if i < 0 || i >= m.n || j < 0 || j >= m.n {
			panic("comm: index out of range")
		}
		m.rows[i].set(j, vol)
		return
	}
	m.v[i*m.n+j] = vol
}

// Add accumulates volume onto entry (i,j).
func (m *Matrix) Add(i, j int, vol float64) {
	if m.rows != nil {
		if i < 0 || i >= m.n || j < 0 || j >= m.n {
			panic("comm: index out of range")
		}
		m.rows[i].add(j, vol)
		return
	}
	m.v[i*m.n+j] += vol
}

// AddSym accumulates volume onto both (i,j) and (j,i), the natural operation
// when recording one message of the given size between two entities.
func (m *Matrix) AddSym(i, j int, vol float64) {
	if m.rows != nil {
		m.Add(i, j, vol)
		if i != j {
			m.Add(j, i, vol)
		}
		return
	}
	m.v[i*m.n+j] += vol
	if i != j {
		m.v[j*m.n+i] += vol
	}
}

// Label returns the name of entity i, or "t<i>" when no labels were set.
func (m *Matrix) Label(i int) string {
	if m.labels == nil {
		return fmt.Sprintf("t%d", i)
	}
	return m.labels[i]
}

// SetLabel names entity i.
func (m *Matrix) SetLabel(i int, s string) {
	if m.labels == nil {
		m.labels = make([]string, m.n)
		for k := range m.labels {
			m.labels[k] = fmt.Sprintf("t%d", k)
		}
	}
	m.labels[i] = s
}

// Clone returns a deep copy of the matrix, preserving the storage mode.
func (m *Matrix) Clone() *Matrix {
	var c *Matrix
	if m.rows != nil {
		c = NewSparse(m.n)
		for i := range m.rows {
			c.rows[i] = m.rows[i].clone()
		}
	} else {
		c = New(m.n)
		copy(c.v, m.v)
	}
	if m.labels != nil {
		c.labels = append([]string(nil), m.labels...)
	}
	return c
}

// IsSymmetric reports whether the matrix equals its transpose exactly.
func (m *Matrix) IsSymmetric() bool {
	if m.rows != nil {
		// Each stored entry (i, j) above the diagonal is compared with its
		// mirror (j, i). Rows are visited in ascending order, so the mirrors
		// asked of row j arrive in ascending column order, and next[j] walks
		// row j once instead of searching it. A below-diagonal entry nobody
		// asks for, stepped over or left when row i's own turn comes, has
		// an absent mirror, which reads 0. The diagonal is passed over.
		// Pairs with neither side stored are trivially 0 == 0.
		next := make([]int32, m.n)
		for i := range m.rows {
			r := &m.rows[i]
			p, _, ok := r.walkTo(int(next[i]), i)
			if !ok {
				return false
			}
			for ; p < len(r.cols); p++ {
				j := int(r.cols[p])
				q, mirror, ok := m.rows[j].walkTo(int(next[j]), i)
				if !ok || mirror != r.vals[p] {
					return false
				}
				next[j] = int32(q)
			}
		}
		return true
	}
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.At(i, j) != m.At(j, i) {
				return false
			}
		}
	}
	return true
}

// TotalVolume returns the sum of all off-diagonal entries, i.e. twice the
// total pairwise communication volume of a symmetric matrix. Both storage
// modes accumulate the nonzero terms in the same (row-major) order, so the
// result is bit-identical across them.
func (m *Matrix) TotalVolume() float64 {
	var s float64
	for i := 0; i < m.n; i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j != i {
				s += v
			}
		})
	}
	return s
}

// RowVolume returns the total off-diagonal volume of row i: how much entity
// i exchanges with everyone else (in its outgoing direction).
func (m *Matrix) RowVolume(i int) float64 {
	var s float64
	m.ForEachNeighbor(i, func(j int, v float64) {
		if j != i {
			s += v
		}
	})
	return s
}

// Aggregate builds the quotient matrix over a partition of the entities:
// entry (a,b) of the result is the total volume between the entities of
// groups[a] and those of groups[b]; diagonal entries accumulate the volume
// internal to each group. Every entity index must appear in exactly one
// group. This is the AggregateComMatrix step of the paper's Algorithm 1.
func (m *Matrix) Aggregate(groups [][]int) (*Matrix, error) {
	seen := make([]bool, m.n)
	for _, g := range groups {
		for _, e := range g {
			if e < 0 || e >= m.n {
				return nil, fmt.Errorf("comm: aggregate: entity %d out of range [0,%d)", e, m.n)
			}
			if seen[e] {
				return nil, fmt.Errorf("comm: aggregate: entity %d appears in two groups", e)
			}
			seen[e] = true
		}
	}
	for e, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("comm: aggregate: entity %d not covered by any group", e)
		}
	}
	var agg *Matrix
	switch {
	case m.rows == nil:
		agg = New(len(groups))
	case !slices.ContainsFunc(groups, func(g []int) bool { return !rowSorted(g) }):
		return m.aggregateSparse(groups), nil
	default:
		// Unsorted groups on a sparse matrix take the dense nested loop
		// below, paying At's binary search for every entity pair: 3.7 s
		// for a 10 000-entity degree-8 random graph in 1 000 groups on a
		// 2-vCPU host, against 11 ms with the groups sorted. Every in-repo
		// caller sorts its groups first.
		agg = NewSparse(len(groups))
	}
	for a, ga := range groups {
		for b, gb := range groups {
			var s float64
			for _, i := range ga {
				for _, j := range gb {
					s += m.At(i, j)
				}
			}
			agg.Set(a, b, s)
		}
	}
	return agg, nil
}

// ExtendZero returns a copy of the matrix grown to the given larger order;
// the new rows and columns are zero. Used when virtual entities (spare
// slots, unmapped control threads) must be represented. Labels of the new
// entities default to "v<i>".
func (m *Matrix) ExtendZero(order int) (*Matrix, error) {
	if order < m.n {
		return nil, fmt.Errorf("comm: cannot extend order %d down to %d", m.n, order)
	}
	var e *Matrix
	if m.rows != nil {
		e = NewSparse(order)
		for i := range m.rows {
			e.rows[i] = m.rows[i].clone()
		}
	} else {
		e = New(order)
		for i := 0; i < m.n; i++ {
			copy(e.v[i*order:i*order+m.n], m.v[i*m.n:(i+1)*m.n])
		}
	}
	if m.labels != nil || order > m.n {
		e.labels = make([]string, order)
		for i := range e.labels {
			switch {
			case i < m.n:
				e.labels[i] = m.Label(i)
			default:
				e.labels[i] = fmt.Sprintf("v%d", i)
			}
		}
	}
	return e, nil
}

// Submatrix returns the restriction of the matrix to the given entities, in
// the given order: entry (a,b) of the result is the volume between
// entities ids[a] and ids[b]. Labels follow. Indices must be in range and
// distinct; the first offending id, in ids order, is the one reported.
// Hierarchical placement uses this to carve one cluster node's task set out
// of the global affinity matrix, one call per node from a worker pool.
func (m *Matrix) Submatrix(ids []int) (*Matrix, error) {
	pos := newPosIndex(len(ids))
	for b, e := range ids {
		if e < 0 || e >= m.n {
			return nil, fmt.Errorf("comm: submatrix: entity %d out of range [0,%d)", e, m.n)
		}
		if !pos.insert(e, b) {
			return nil, fmt.Errorf("comm: submatrix: entity %d appears twice", e)
		}
	}
	var s *Matrix
	if m.rows != nil {
		s = NewSparse(len(ids))
		nnz := 0
		for _, i := range ids {
			for _, c := range m.rows[i].cols {
				if pos.find(c) >= 0 {
					nnz++
				}
			}
		}
		// One backing array per field; each row is capped to its own
		// window, so growing one row reallocates it instead of overwriting
		// the next.
		cols, vals := make([]int32, nnz), make([]float64, nnz)
		q := 0
		for a, i := range ids {
			r := &m.rows[i]
			lo := q
			for p, c := range r.cols {
				if b := pos.find(c); b >= 0 {
					cols[q], vals[q] = b, r.vals[p]
					q++
				}
			}
			s.rows[a] = sparseRow{cols: cols[lo:q:q], vals: vals[lo:q:q]}
		}
		if !rowSorted(ids) {
			// The permutation scrambled the stored column order.
			srt := new(colValSorter)
			for a := range s.rows {
				*srt = colValSorter{s.rows[a].cols, s.rows[a].vals}
				sort.Sort(srt)
			}
		}
	} else {
		s = New(len(ids))
		for a, i := range ids {
			for b, j := range ids {
				s.Set(a, b, m.At(i, j))
			}
		}
	}
	if m.labels != nil {
		s.labels = make([]string, len(ids))
		for a, i := range ids {
			s.labels[a] = m.labels[i]
		}
	}
	return s, nil
}

// posIndex maps the entities of one Submatrix call to their positions. It
// is an open-addressing table at most a quarter full, sized by len(ids)
// rather than by the order, so a call costs O(len(ids)) and shares nothing.
// A slot holds entity+1 in its high half (0 marks it empty) and the
// position in its low half.
type posIndex struct {
	slots []uint64
	shift uint32 // home slot = the top log2(len(slots)) bits of the hash
}

func newPosIndex(n int) posIndex {
	size, shift := 4, uint32(30)
	for size < 4*n {
		size, shift = size<<1, shift-1
	}
	return posIndex{make([]uint64, size), shift}
}

// slot returns the slot holding e, or the empty slot that ends its probe.
func (t posIndex) slot(e int32) int {
	mask := len(t.slots) - 1
	h := int((uint32(e) * 0x9E3779B1) >> t.shift)
	for t.slots[h] != 0 && int32(t.slots[h]>>32) != e+1 {
		h = (h + 1) & mask
	}
	return h
}

// insert records e at position b; false if e is already recorded.
func (t posIndex) insert(e, b int) bool {
	h := t.slot(int32(e))
	if t.slots[h] != 0 {
		return false
	}
	t.slots[h] = uint64(e+1)<<32 | uint64(b)
	return true
}

// find returns e's position, or -1 if e is not in the call's ids.
func (t posIndex) find(e int32) int32 {
	if s := t.slots[t.slot(e)]; s != 0 {
		return int32(uint32(s))
	}
	return -1
}

// Scale multiplies every entry by f in place and returns the matrix. In
// sparse mode only stored entries are scaled (absent zeros stay zero, so a
// non-finite f does not materialize NaNs the dense mode would produce).
func (m *Matrix) Scale(f float64) *Matrix {
	if m.rows != nil {
		for i := range m.rows {
			vals := m.rows[i].vals
			for p := range vals {
				vals[p] *= f
			}
		}
		return m
	}
	for i := range m.v {
		m.v[i] *= f
	}
	return m
}

// Equal reports whether two matrices have the same order and entries within
// the given absolute tolerance. Matrices of different storage modes compare
// by value (at O(n²) cost via At).
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.n != o.n {
		return false
	}
	if m.rows == nil && o.rows == nil {
		for i := range m.v {
			if math.Abs(m.v[i]-o.v[i]) > tol {
				return false
			}
		}
		return true
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if math.Abs(m.At(i, j)-o.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
