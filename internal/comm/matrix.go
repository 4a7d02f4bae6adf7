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
// # Symmetry
//
// Every Matrix equals its transpose bit for bit, so the partitioners read
// the affinity of a pair as v + v from one row. AddSym is the only writer
// and adds the same volume to both cells; Read adds half of each
// off-diagonal entry of a file to both of its cells; Aggregate copies each
// cell above the diagonal onto its mirror; Submatrix, PadView and
// ExtendZero copy what is there. Volumes are finite and not negative.
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
// runtime's measured matrices (the run-to-date one and each epoch's window)
// narrow the gap — they record granted handoffs, not declarations — but
// per-pair attribution remains pairwise.
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
	labels []string    // names of the first len(labels) entities
	pad    int         // the last pad entities are zero padding (ExtendZero, PadView)
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

// AddSym accumulates volume onto both (i,j) and (j,i), the natural operation
// when recording one message of the given size between two entities. It is
// the only writer of a matrix, so every matrix equals its transpose bit for
// bit: the two cells see the same additions in the same order. It panics on
// a negative, NaN or infinite volume, as the ORWL runtime's volume
// declarations do.
func (m *Matrix) AddSym(i, j int, vol float64) {
	if vol < 0 || math.IsNaN(vol) || math.IsInf(vol, 0) {
		panic(fmt.Sprintf("comm: AddSym(%d, %d) volume %v, want a finite volume ≥ 0", i, j, vol))
	}
	m.row(i, j).put(j, vol)
	if i != j {
		m.rows[j].put(i, vol)
	}
}

// Label returns the name of entity i: the one SetLabel gave it, or else
// "v<i>" for zero padding and "t<i>" for any other entity.
func (m *Matrix) Label(i int) string {
	m.row(i, i) // range check
	switch {
	case i < len(m.labels):
		return m.labels[i]
	case i >= m.n-m.pad:
		return fmt.Sprintf("v%d", i)
	}
	return fmt.Sprintf("t%d", i)
}

// SetLabel names entity i. Entities below i that have no name yet get
// their default one, so Label reads the same for them afterwards.
func (m *Matrix) SetLabel(i int, s string) {
	m.row(i, i) // range check
	m.labels = slices.Grow(m.labels, m.n-len(m.labels))
	for len(m.labels) <= i {
		m.labels = append(m.labels, m.Label(len(m.labels)))
	}
	m.labels[i] = s
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

// Storage is caller-owned memory that a derived matrix (a sub-matrix, an
// aggregate, a padding view) is built into, so that a loop deriving one
// matrix per step — one cluster node's sub-matrix, one tree level's
// aggregate — reuses it instead of allocating afresh. SubmatrixIn,
// AggregateIn and PadView return a matrix that lives in the storage and is
// valid until the storage is next used; Submatrix and Aggregate are the
// same calls into a Storage of their own. The zero value is ready. A
// Storage must not be used by two goroutines at once.
type Storage struct {
	m      Matrix
	cols   []int32
	vals   []float64
	labels []string
	// Scratch: Submatrix's position table and row sort buffer; Aggregate's
	// coverage marks, group of every entity, cell sums and touched cells.
	slots   []uint64
	pairs   []colVal
	seen    []bool
	grp     []int32
	acc     []float64
	touched []int32
}

// colVal is one stored entry of a row, for sorting rows by column.
type colVal struct {
	c int32
	v float64
}

// grow returns s resized to n, reusing its array when it is large enough;
// the contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset makes the storage's matrix an order-n matrix of stale rows, which
// the caller overwrites every one of, with room for nnz cells in st.cols
// and st.vals.
func (st *Storage) reset(n, nnz int) *Matrix {
	st.cols, st.vals = grow(st.cols, nnz), grow(st.vals, nnz)
	st.m = Matrix{n: n, rows: grow(st.m.rows, n)}
	return &st.m
}

// detach returns a copy of a matrix built into a Storage on the caller's
// stack, so the result outlives the scratch and keeps none of it.
func detach(s *Matrix, err error) (*Matrix, error) {
	if err != nil {
		return nil, err
	}
	c := *s
	return &c, nil
}

// Aggregate builds the quotient matrix over a partition of the entities:
// entry (a,b) of the result is the total volume between the entities of
// groups[a] and those of groups[b]; diagonal entries accumulate the volume
// internal to each group. Every entity index must appear in exactly one
// group. This is the AggregateComMatrix step of the paper's Algorithm 1.
func (m *Matrix) Aggregate(groups [][]int) (*Matrix, error) {
	var st Storage
	return detach(m.AggregateIn(&st, groups))
}

// AggregateIn is Aggregate built into st (see Storage).
func (m *Matrix) AggregateIn(st *Storage, groups [][]int) (*Matrix, error) {
	seen := grow(st.seen, m.n)
	st.seen = seen
	clear(seen)
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
	// A cell is stored only if some nonzero entry falls in it: at most k²
	// cells, and no more than the nonzero entries.
	k := len(groups)
	agg := st.reset(k, int(min(int64(m.NNZ()), int64(k)*int64(k))))
	if !slices.ContainsFunc(groups, func(g []int) bool { return !rowSorted(g) }) {
		m.aggregateSorted(st, groups)
	} else {
		m.aggregateNested(st, groups)
	}
	agg.mirror()
	return agg, nil
}

// aggregateNested is Aggregate for groups in any order, into st's matrix.
func (m *Matrix) aggregateNested(st *Storage, groups [][]int) {
	// The nested loop pays At's binary search for every entity pair: 3.7 s
	// for a 10 000-entity degree-8 random graph in 1 000 groups on a 2-vCPU
	// host, against 11 ms with the groups sorted. The equal-capacity partitions take this path: with equal
	// capacities, treematch.PartitionAcrossWeightedMatrix and
	// placement.SlotMapper.Assign aggregate the equal cut's groups
	// unsorted (`ablate -exp all` makes 175 such calls, orders 6 to 64,
	// most through placement.AssignFreeSlots). Sorting them there would
	// reorder each cell's float sum and could move non-integer volumes.
	// A cell no entry falls in sums to zero and is not stored.
	agg, q := &st.m, 0
	for a, ga := range groups {
		lo := q
		for b, gb := range groups {
			var s float64
			for _, i := range ga {
				for _, j := range gb {
					s += m.At(i, j)
				}
			}
			if s != 0 {
				st.cols[q], st.vals[q] = int32(b), s
				q++
			}
		}
		agg.rows[a] = sparseRow{cols: st.cols[lo:q:q], vals: st.vals[lo:q:q]}
	}
}

// mirror copies every cell above the diagonal onto its mirror below it. An
// aggregate adds a cell's terms in the order its own row meets them, which
// differs between the two directions, so they can differ in the last bit;
// after mirror the aggregate equals its transpose, as every matrix does.
// The cell pattern is already symmetric, so each mirror is found.
func (m *Matrix) mirror() {
	for b := range m.rows {
		r := &m.rows[b]
		for p, a := range r.cols {
			if int(a) >= b {
				break
			}
			r.vals[p] = m.rows[a].at(b)
		}
	}
}

// ExtendZero returns a copy of the matrix grown to the given larger order;
// the new rows and columns are zero. Used when virtual entities (spare
// slots, unmapped control threads) must be represented, and written to
// afterwards; PadView is the read-only form. The new entities are named
// "v<i>" (see Label).
func (m *Matrix) ExtendZero(order int) (*Matrix, error) {
	if order < m.n {
		return nil, fmt.Errorf("comm: cannot extend order %d down to %d", m.n, order)
	}
	e := New(order)
	packRows(e.rows, m.rows)
	e.labels = slices.Clone(m.labels)
	e.pad = m.pad + order - m.n
	return e, nil
}

// PadView returns the matrix grown to the given larger order with zero rows
// and columns, built into st (see Storage): a view whose rows share m's
// storage, so it costs one row table instead of a copy of every entry. It
// carries no labels. Neither the view nor m may be written while the view
// is in use.
func (m *Matrix) PadView(st *Storage, order int) (*Matrix, error) {
	if order < m.n {
		return nil, fmt.Errorf("comm: cannot pad order %d down to %d", m.n, order)
	}
	v := st.reset(order, 0)
	for i, r := range m.rows {
		// Capped, so an insert through the view could not reach m's rows.
		v.rows[i] = sparseRow{cols: r.cols[:len(r.cols):len(r.cols)], vals: r.vals[:len(r.vals):len(r.vals)]}
	}
	clear(v.rows[m.n:])
	v.pad = m.pad + order - m.n
	return v, nil
}

// Submatrix returns the restriction of the matrix to the given entities, in
// the given order: entry (a,b) of the result is the volume between entities
// ids[a] and ids[b]. A matrix with names or padding passes entity ids[a]'s
// name on to entity a. The ids must be in range and distinct; the error
// names the first that is not, in ids order.
//
// The result is built into fresh storage; SubmatrixIn builds it into a
// caller's Storage instead. Hierarchical placement carves each cluster
// node's task set out of the task matrix this way, every worker of its pool
// into one Storage it reuses node after node. Either way a call costs
// O(len(ids)) plus the stored entries of the ids' rows, not the order.
func (m *Matrix) Submatrix(ids []int) (*Matrix, error) {
	var st Storage
	return detach(m.SubmatrixIn(&st, ids))
}

// SubmatrixIn is Submatrix built into st (see Storage).
func (m *Matrix) SubmatrixIn(st *Storage, ids []int) (*Matrix, error) {
	pos := st.posIndex(len(ids))
	for b, e := range ids {
		if e < 0 || e >= m.n {
			return nil, fmt.Errorf("comm: submatrix: entity %d out of range [0,%d)", e, m.n)
		}
		if !pos.insert(e, b) {
			return nil, fmt.Errorf("comm: submatrix: entity %d appears twice", e)
		}
	}
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
	s := st.reset(len(ids), nnz)
	cols, vals := st.cols, st.vals
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
		for a := range s.rows {
			r := &s.rows[a]
			buf := st.pairs[:0]
			for p, c := range r.cols {
				buf = append(buf, colVal{c, r.vals[p]})
			}
			slices.SortFunc(buf, func(x, y colVal) int { return cmp.Compare(x.c, y.c) })
			for p, e := range buf {
				r.cols[p], r.vals[p] = e.c, e.v
			}
			st.pairs = buf
		}
	}
	if m.labels != nil || m.pad > 0 {
		s.labels = grow(st.labels, len(ids))
		st.labels = s.labels
		for a, i := range ids {
			s.labels[a] = m.Label(i)
		}
	}
	return s, nil
}

// posIndex maps the entities of one Submatrix call to their positions. It
// is an open-addressing table at most a quarter full, sized by len(ids)
// rather than by the order, so a call costs O(len(ids)); its slots live in
// the call's Storage. A slot holds entity+1 in its high half (0 marks it
// empty) and the position in its low half.
type posIndex struct {
	slots []uint64
	shift uint32 // home slot = the top log2(len(slots)) bits of the hash
}

// posIndex returns an empty position table for n entities in st's slots.
func (st *Storage) posIndex(n int) posIndex {
	size, shift := 4, uint32(30)
	for size < 4*n {
		size, shift = size<<1, shift-1
	}
	st.slots = grow(st.slots, size)
	clear(st.slots)
	return posIndex{st.slots, shift}
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
