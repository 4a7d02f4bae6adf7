package comm

// SymAdjacency is the CSR form of the affinity graph: the partners of entity
// e are Col[Off[e]:Off[e+1]] in ascending order (e itself excluded), W
// holding w(e,u) = At(e,u) + At(u,e) at the same positions. Summing a row of
// W front to back adds exactly the nonzero terms of the dense loop
// "for u ascending: s += At(e,u) + At(u,e)", in its order.
type SymAdjacency struct {
	Off, Col []int32
	W        []float64
}

// SymmetricAdjacency builds the adjacency of the matrix into a, reusing a's
// storage (grow-only), and returns a; nil allocates a fresh one. The matrix
// equals its transpose, so one walk of each row, diagonal dropped, gives
// w = v + v.
func (m *Matrix) SymmetricAdjacency(a *SymAdjacency) *SymAdjacency {
	if a == nil {
		a = new(SymAdjacency)
	}
	n := m.n
	if cap(a.Off) < n+1 {
		a.Off = make([]int32, n+1)
	}
	if nnz := m.NNZ(); cap(a.Col) < nnz {
		a.Col, a.W = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	off, col, w := a.Off[:n+1], a.Col[:0], a.W[:0]
	for e := 0; e < n; e++ {
		off[e] = int32(len(col))
		m.ForEachNeighbor(e, func(j int, v float64) {
			if j != e {
				col, w = append(col, int32(j)), append(w, v+v)
			}
		})
	}
	off[n] = int32(len(col))
	a.Off, a.Col, a.W = off, col, w
	return a
}
