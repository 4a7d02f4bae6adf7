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
// # Storage
//
// A Matrix has one storage: a sorted adjacency per row, so memory follows
// the nonzero entries, not the square of the order. ForEachNeighbor visits
// a row's nonzeros in ascending column order — the order a loop over every
// column reading At meets them — so a float sum driven by it adds the same
// terms in the same order as that loop, and the partitioners stay
// bit-reproducible whichever way they walk a row.
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
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Matrix is a square communication matrix, stored as one sorted adjacency
// per row (see sparse.go), so memory follows the nonzero entries. The zero
// value is unusable; use New. Methods panic on out-of-range indices,
// mirroring slice semantics.
type Matrix struct {
	n      int
	rows   []sparseRow // per-row sorted adjacency, length n
	labels []string    // optional entity names, length n when present
}

// New returns an order-n zero matrix. Memory grows with the number of
// nonzero entries, not with n².
func New(n int) *Matrix {
	if n < 0 {
		panic("comm: negative matrix order")
	}
	return &Matrix{n: n, rows: make([]sparseRow, n)}
}

// Order returns the number of computing entities (the matrix dimension).
func (m *Matrix) Order() int { return m.n }

// row returns row i after checking that (i,j) is in range.
func (m *Matrix) row(i, j int) *sparseRow {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic("comm: index out of range")
	}
	return &m.rows[i]
}

// At returns the volume exchanged between entities i and j: a binary search
// over row i's nonzeros, so hot loops should prefer ForEachNeighbor.
func (m *Matrix) At(i, j int) float64 { return m.row(i, j).at(j) }

// Set assigns the volume exchanged between entities i and j.
func (m *Matrix) Set(i, j int, vol float64) { m.row(i, j).put(j, vol, false) }

// Add accumulates volume onto entry (i,j).
func (m *Matrix) Add(i, j int, vol float64) { m.row(i, j).put(j, vol, true) }

// AddSym accumulates volume onto both (i,j) and (j,i), the natural operation
// when recording one message of the given size between two entities.
func (m *Matrix) AddSym(i, j int, vol float64) {
	m.Add(i, j, vol)
	if i != j {
		m.Add(j, i, vol)
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

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	packRows(c.rows, m.rows)
	if m.labels != nil {
		c.labels = append([]string(nil), m.labels...)
	}
	return c
}

// IsSymmetric reports whether the matrix equals its transpose exactly.
func (m *Matrix) IsSymmetric() bool {
	// Each stored entry (i, j) above the diagonal is compared with its
	// mirror (j, i). Rows are visited in ascending order, so the mirrors
	// asked of row j arrive in ascending column order, and next[j] walks
	// row j once instead of searching it. A below-diagonal entry nobody
	// asks for, stepped over or left when row i's own turn comes, has an
	// absent mirror, which reads 0. The diagonal is passed over. Pairs with
	// neither side stored are trivially 0 == 0.
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

// TotalVolume returns the sum of all off-diagonal entries, i.e. twice the
// total pairwise communication volume of a symmetric matrix, accumulated in
// row-major order.
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
	if !slices.ContainsFunc(groups, func(g []int) bool { return !rowSorted(g) }) {
		return m.aggregateSorted(groups), nil
	}
	// Unsorted groups take the nested loop below, paying At's binary search
	// for every entity pair: 3.7 s for a 10 000-entity degree-8 random graph
	// in 1 000 groups on a 2-vCPU host, against 11 ms with the groups
	// sorted. One caller takes this path: with equal capacities,
	// treematch.PartitionAcrossWeightedMatrix passes PartitionAcross's
	// groups on unsorted (`ablate -exp all` makes 175 such calls, orders 6
	// to 64, most through placement.AssignFreeSlots). Sorting them there
	// would reorder each cell's float sum and could move non-integer volumes.
	agg := New(len(groups))
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
	e := New(order)
	packRows(e.rows, m.rows)
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
	s := New(len(ids))
	nnz := 0
	for _, i := range ids {
		for _, c := range m.rows[i].cols {
			if pos.find(c) >= 0 {
				nnz++
			}
		}
	}
	// One backing array per field; each row is capped to its own window, so
	// growing one row reallocates it instead of overwriting the next.
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
		// The permutation scrambled the stored column order; a row's
		// columns are distinct, so sorting by column alone is exact.
		type colVal struct {
			c int32
			v float64
		}
		var buf []colVal
		for a := range s.rows {
			r := &s.rows[a]
			buf = buf[:0]
			for p, c := range r.cols {
				buf = append(buf, colVal{c, r.vals[p]})
			}
			slices.SortFunc(buf, func(x, y colVal) int { return cmp.Compare(x.c, y.c) })
			for p, e := range buf {
				r.cols[p], r.vals[p] = e.c, e.v
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

// Equal reports whether two matrices have the same order and entries within
// the given absolute tolerance, comparing every cell through At.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.n != o.n {
		return false
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
