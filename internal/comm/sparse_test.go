package comm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// testMatrices covers the generator shapes the partitioners consume, plus
// diagonal entries and pairs written from both ends.
func testMatrices(t *testing.T) map[string]*Matrix {
	t.Helper()
	return map[string]*Matrix{
		"stencil8x8":  Stencil2DSparse(8, 8, 64, 8),
		"stencil5x3":  Stencil2DSparse(5, 3, 100, 10),
		"ring17":      Ring(17, 3),
		"complete9":   Random(9, 1, 2, 3),
		"random64":    Random(64, 0.1, 1000, 42),
		"lk23":        LK23OpLevel(3, 3, 16, 16, 8),
		"empty":       New(12),
		"bothends":    func() *Matrix { m := New(6); m.AddSym(0, 3, 5); m.AddSym(3, 0, 2); m.AddSym(5, 1, 7); return m }(),
		"diagonal":    func() *Matrix { m := New(5); m.AddSym(4, 4, 2); m.AddSym(4, 1, 0); m.AddSym(0, 4, 1.5); return m }(),
		"zeroorder":   New(0),
		"singleentry": New(1),
	}
}

// atSum adds At(i, j) over i in rows, then j in cols, in the given orders:
// the nested loop that defines a quotient cell.
func atSum(m *Matrix, rows, cols []int) float64 {
	var s float64
	for _, i := range rows {
		for _, j := range cols {
			s += m.At(i, j)
		}
	}
	return s
}

// TestSparseIterationMatchesDense checks ForEachNeighbor and NNZ against a
// scan of every column through At.
func TestSparseIterationMatchesDense(t *testing.T) {
	type ent struct {
		j int
		v float64
	}
	for name, m := range testMatrices(t) {
		nnz := 0
		for i := 0; i < m.Order(); i++ {
			var want, got []ent
			for j := 0; j < m.Order(); j++ {
				if v := m.At(i, j); v != 0 {
					want = append(want, ent{j, v})
				}
			}
			nnz += len(want)
			m.ForEachNeighbor(i, func(j int, v float64) { got = append(got, ent{j, v}) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s row %d: ForEachNeighbor %v, At scan %v", name, i, got, want)
			}
		}
		if got := m.NNZ(); got != nnz {
			t.Errorf("%s: NNZ %d, At scan %d", name, got, nnz)
		}
	}
}

// TestSparseAccumulationsBitEqual holds TotalVolume and RowVolume to the
// every-column loops that define them, and every matrix to its transpose.
func TestSparseAccumulationsBitEqual(t *testing.T) {
	for name, m := range testMatrices(t) {
		var total float64 // one running sum in row-major order, not row totals
		for i := 0; i < m.Order(); i++ {
			var row float64
			for j := 0; j < m.Order(); j++ {
				if j != i {
					row += m.At(i, j)
					total += m.At(i, j)
				}
			}
			if got := m.RowVolume(i); got != row {
				t.Errorf("%s: RowVolume(%d) %v, want %v", name, i, got, row)
			}
		}
		if got := m.TotalVolume(); got != total {
			t.Errorf("%s: TotalVolume %v, want %v", name, got, total)
		}
		if i, j, ok := transposeExact(m); !ok {
			t.Errorf("%s: cells (%d,%d) and (%d,%d) differ", name, i, j, j, i)
		}
	}
}

// TestSparseAggregateBitEqual checks every cell of Aggregate against the
// nested At loop over its two groups, for sorted groups (aggregateSorted)
// and unsorted ones (the nested loop itself). A cell below the diagonal is
// its mirror's loop.
func TestSparseAggregateBitEqual(t *testing.T) {
	check := func(name string, m *Matrix, groups [][]int) {
		t.Helper()
		agg, err := m.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Order() != len(groups) {
			t.Fatalf("%s: order %d, want %d", name, agg.Order(), len(groups))
		}
		for a := range groups {
			for b := range groups {
				if got, want := agg.At(a, b), atSum(m, groups[min(a, b)], groups[max(a, b)]); got != want {
					t.Fatalf("%s: cell (%d,%d) = %v, nested loop %v", name, a, b, got, want)
				}
			}
		}
	}
	groups := make([][]int, 16)
	for i := 0; i < 64; i++ {
		groups[i/4] = append(groups[i/4], i)
	}
	check("stencil8x8", Stencil2DSparse(8, 8, 64, 8), groups)

	// Non-integer volumes, pairs written from both ends, summed over
	// scattered groups: any change in the per-cell summation order shows up
	// in the low bits. Group counts run from one group to one per entity,
	// so output rows range from one cell to hundreds.
	rng := rand.New(rand.NewSource(25))
	for c := 0; c < 40; c++ {
		n := 8 + rng.Intn(400)
		m := New(n)
		for e := 0; e < 3*n; e++ {
			m.AddSym(rng.Intn(n), rng.Intn(n), rng.Float64()*1000)
		}
		k := 1 + rng.Intn(n)
		groups := make([][]int, k)
		for e, g := range rng.Perm(n) {
			groups[g%k] = append(groups[g%k], e) // ascending: e grows
		}
		switch c % 4 {
		case 0: // unsorted groups: the nested loop
			for _, g := range groups {
				slices.Reverse(g)
			}
		case 1: // one group out of order, the rest sorted
			g := groups[rng.Intn(k)]
			rng.Shuffle(len(g), func(x, y int) { g[x], g[y] = g[y], g[x] })
		}
		check(fmt.Sprintf("case %d (n=%d k=%d)", c, n, k), m, groups)
	}
}

// TestAggregateMirrorsCells: the two directions of an aggregate cell add
// the same terms in different orders, and on random256 in groups of four
// some pairs differ in the last bit. Aggregate keeps the cell above the
// diagonal on both sides, for sorted and for unsorted groups.
func TestAggregateMirrorsCells(t *testing.T) {
	m := Random(256, 0.05, 500, 7)
	sorted, reversed := make([][]int, 64), make([][]int, 64)
	for i := 0; i < 256; i++ {
		sorted[i/4] = append(sorted[i/4], i)
		reversed[i/4] = append([]int{i}, reversed[i/4]...)
	}
	differ := 0
	for a := range sorted {
		for b := a + 1; b < len(sorted); b++ {
			if atSum(m, sorted[a], sorted[b]) != atSum(m, sorted[b], sorted[a]) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("no aggregate cell's two directions differ; the case no longer exercises the mirror")
	}
	for name, groups := range map[string][][]int{"sorted": sorted, "reversed": reversed} {
		agg, err := m.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		if i, j, ok := transposeExact(agg); !ok {
			t.Errorf("%s: cells (%d,%d) and (%d,%d) differ: %v and %v", name, i, j, j, i, agg.At(i, j), agg.At(j, i))
		}
	}
}

// TestSparseSubmatrixExtendSymmetrize checks Submatrix and ExtendZero entry
// by entry against lookups in the source matrix.
func TestSparseSubmatrixExtendSymmetrize(t *testing.T) {
	m := Random(40, 0.3, 500, 7)
	m.AddSym(3, 9, 123)
	m.SetLabel(5, "five")

	ids := []int{5, 0, 17, 33, 12, 39, 3, 9}
	sub, err := m.Submatrix(ids)
	if err != nil {
		t.Fatal(err)
	}
	for a, i := range ids {
		for b, j := range ids {
			if got, want := sub.At(a, b), m.At(i, j); got != want {
				t.Fatalf("submatrix (%d,%d) = %v, want m(%d,%d) = %v", a, b, got, i, j, want)
			}
		}
		if sub.Label(a) != m.Label(i) {
			t.Errorf("submatrix label %d = %q, want %q", a, sub.Label(a), m.Label(i))
		}
	}

	x, err := m.ExtendZero(50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			var want float64
			if i < 40 && j < 40 {
				want = m.At(i, j)
			}
			if got := x.At(i, j); got != want {
				t.Fatalf("extend (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
		want := fmt.Sprintf("v%d", i)
		if i < 40 {
			want = m.Label(i)
		}
		if x.Label(i) != want {
			t.Fatalf("extend label %d = %q, want %q", i, x.Label(i), want)
		}
	}
}

func TestSparseGenerators(t *testing.T) {
	const bx, by = 7, 5
	s := Stencil2DSparse(bx, by, 64, 8)
	for i := 0; i < bx*by; i++ {
		xi, yi := i%bx, i/bx
		if want := fmt.Sprintf("b(%d,%d)", xi, yi); s.Label(i) != want {
			t.Fatalf("label %d = %q, want %q", i, s.Label(i), want)
		}
		for j := 0; j < bx*by; j++ {
			dx, dy := j%bx-xi, j/bx-yi
			var want float64
			switch dx*dx + dy*dy {
			case 1:
				want = 64
			case 2:
				want = 8
			}
			if got := s.At(i, j); got != want {
				t.Fatalf("stencil (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}

	r := RandomSparse(1000, 4, 100, 11)
	if _, _, ok := transposeExact(r); !ok {
		t.Error("RandomSparse not symmetric")
	}
	r2 := RandomSparse(1000, 4, 100, 11)
	if !r.Equal(r2, 0) {
		t.Error("RandomSparse not deterministic for a fixed seed")
	}
	// Bounded degree: nnz is O(n·degree), nowhere near n².
	if nnz := r.NNZ(); nnz == 0 || nnz > 1000*4*2 {
		t.Errorf("RandomSparse nnz %d outside expected bound", nnz)
	}
}

// TestSparseSetAddSemantics: a write of zero never stores an entry, whether
// the cell is absent or already holds a volume, and AddSym, the one writer
// that sets and adds, mirrors every entry.
func TestSparseSetAddSemantics(t *testing.T) {
	s := New(5)
	s.AddSym(1, 2, 0) // adding zero to an absent entry must not materialize it
	if s.NNZ() != 0 {
		t.Errorf("AddSym(.,.,0) materialized an entry: nnz=%d", s.NNZ())
	}
	s.AddSym(0, 4, 2.5)
	if s.At(0, 4) != 2.5 || s.At(4, 0) != 2.5 {
		t.Error("AddSym did not mirror")
	}
	s.AddSym(4, 0, 0)
	if s.At(0, 4) != 2.5 || s.NNZ() != 2 {
		t.Errorf("adding zero to a stored entry changed it: %v, nnz=%d", s.At(0, 4), s.NNZ())
	}
	if math.Abs(s.TotalVolume()-5) > 0 {
		t.Errorf("TotalVolume = %v, want 5", s.TotalVolume())
	}
}
