package comm

// SymAdjacency is the CSR form of the symmetrized affinity graph: the
// partners of entity e are Col[Off[e]:Off[e+1]] in ascending order (e itself
// excluded), W holding w(e,u) = At(e,u) + At(u,e) at the same positions.
// A pair is listed when either direction is stored and w is not zero, so the
// pattern is symmetric and W is bitwise symmetric (float addition commutes)
// for asymmetric, negative and explicit-zero matrices alike. Summing a row of
// W front to back adds exactly the nonzero terms of the dense loop
// "for u ascending: s += At(e,u) + At(u,e)", in its order.
type SymAdjacency struct {
	Off, Col []int32
	W        []float64

	// Scratch of the build: the off-diagonal nonzeros chained by column,
	// entry q being (row tlink[2q], value tval[q]) with its successor in the
	// column at tlink[2q+1].
	tlink []int32
	tval  []float64
}

// SymmetricAdjacency builds the symmetrized adjacency of the matrix into a,
// reusing a's storage (grow-only), and returns a; nil allocates a fresh one.
// Two sweeps over the stored entries: one chains them by column, one merges
// each row with its column.
func (m *Matrix) SymmetricAdjacency(a *SymAdjacency) *SymAdjacency {
	if a == nil {
		a = new(SymAdjacency)
	}
	n := m.n
	if cap(a.Off) < n+1 {
		a.Off = make([]int32, n+1)
	}
	// Off[j] heads column j's chain until the merge reaches row j.
	off := a.Off[:n+1]
	for j := range off {
		off[j] = -1
	}
	// Sized up front (append would re-grow each block several times over): the
	// chains hold at most NNZ entries, and so does the adjacency unless some
	// entries have no mirror, which append then makes room for.
	if nnz := m.NNZ(); cap(a.tval) < nnz {
		a.tlink, a.tval = make([]int32, 0, 2*nnz), make([]float64, 0, nnz)
		a.Col, a.W = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	tlink, tval := a.tlink[:0], a.tval[:0]
	// Rows descending and every entry pushed on the front of its column's
	// chain, so the chains read in ascending row order.
	for i := n - 1; i >= 0; i-- {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j != i {
				tlink = append(tlink, int32(i), off[j])
				off[j] = int32(len(tval))
				tval = append(tval, v)
			}
		})
	}
	col, w := a.Col[:0], a.W[:0]
	emit := func(u int32, x float64) {
		if x != 0 {
			col, w = append(col, u), append(w, x)
		}
	}
	for e := 0; e < n; e++ {
		t := off[e]
		off[e] = int32(len(col))
		m.ForEachNeighbor(e, func(j int, v float64) {
			if j == e {
				return
			}
			for ; t >= 0 && int(tlink[2*t]) < j; t = tlink[2*t+1] {
				emit(tlink[2*t], tval[t])
			}
			if t >= 0 && int(tlink[2*t]) == j {
				v += tval[t]
				t = tlink[2*t+1]
			}
			emit(int32(j), v)
		})
		for ; t >= 0; t = tlink[2*t+1] {
			emit(tlink[2*t], tval[t])
		}
	}
	off[n] = int32(len(col))
	a.Off, a.Col, a.W, a.tlink, a.tval = off, col, w, tlink, tval
	return a
}
