package comm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// testMatrices returns dense/sparse pairs with identical entries, covering
// the generator shapes the partitioners consume.
func testMatrices(t *testing.T) map[string]*Matrix {
	t.Helper()
	return map[string]*Matrix{
		"stencil8x8":  Stencil2D(8, 8, 64, 8),
		"stencil5x3":  Stencil2D(5, 3, 100, 10),
		"ring17":      Ring(17, 3),
		"alltoall9":   AllToAll(9, 2),
		"random64":    Random(64, 0.1, 1000, 42),
		"lk23":        LK23OpLevel(3, 3, 16, 16, 8),
		"empty":       New(12),
		"asymmetric":  func() *Matrix { m := New(6); m.Set(0, 3, 5); m.Set(3, 0, 2); m.Set(5, 1, 7); return m }(),
		"zeroorder":   New(0),
		"singleentry": New(1),
	}
}

func TestSparseRoundTrip(t *testing.T) {
	for name, d := range testMatrices(t) {
		s := d.ToSparse()
		if !s.IsSparse() {
			t.Fatalf("%s: ToSparse not sparse", name)
		}
		if d.IsSparse() {
			t.Fatalf("%s: dense original claims sparse", name)
		}
		back := s.ToDense()
		if !d.Equal(back, 0) {
			t.Errorf("%s: dense→sparse→dense round trip changed entries", name)
		}
		if !d.Equal(s, 0) {
			t.Errorf("%s: cross-mode Equal failed", name)
		}
		for i := 0; i < d.Order(); i++ {
			for j := 0; j < d.Order(); j++ {
				if d.At(i, j) != s.At(i, j) {
					t.Fatalf("%s: At(%d,%d) dense %v sparse %v", name, i, j, d.At(i, j), s.At(i, j))
				}
			}
		}
	}
}

func TestSparseIterationMatchesDense(t *testing.T) {
	for name, d := range testMatrices(t) {
		s := d.ToSparse()
		if got, want := s.NNZ(), d.NNZ(); got != want {
			t.Errorf("%s: NNZ sparse %d dense %d", name, got, want)
		}
		for i := 0; i < d.Order(); i++ {
			if got, want := s.RowNNZ(i), d.RowNNZ(i); got != want {
				t.Errorf("%s: RowNNZ(%d) sparse %d dense %d", name, i, got, want)
			}
			type ent struct {
				j int
				v float64
			}
			var dseq, sseq []ent
			d.ForEachNeighbor(i, func(j int, v float64) { dseq = append(dseq, ent{j, v}) })
			s.ForEachNeighbor(i, func(j int, v float64) { sseq = append(sseq, ent{j, v}) })
			if len(dseq) != len(sseq) {
				t.Fatalf("%s row %d: neighbor count dense %d sparse %d", name, i, len(dseq), len(sseq))
			}
			for p := range dseq {
				if dseq[p] != sseq[p] {
					t.Fatalf("%s row %d pos %d: dense %+v sparse %+v", name, i, p, dseq[p], sseq[p])
				}
			}
		}
	}
}

func TestSparseAccumulationsBitEqual(t *testing.T) {
	for name, d := range testMatrices(t) {
		s := d.ToSparse()
		if got, want := s.TotalVolume(), d.TotalVolume(); got != want {
			t.Errorf("%s: TotalVolume sparse %v dense %v", name, got, want)
		}
		for i := 0; i < d.Order(); i++ {
			if got, want := s.RowVolume(i), d.RowVolume(i); got != want {
				t.Errorf("%s: RowVolume(%d) sparse %v dense %v", name, i, got, want)
			}
		}
		if got, want := s.MaxEntry(), d.MaxEntry(); got != want {
			t.Errorf("%s: MaxEntry sparse %v dense %v", name, got, want)
		}
		if got, want := s.IsSymmetric(), d.IsSymmetric(); got != want {
			t.Errorf("%s: IsSymmetric sparse %v dense %v", name, got, want)
		}
	}
}

func TestSparseAggregateBitEqual(t *testing.T) {
	d := Stencil2D(8, 8, 64, 8)
	s := d.ToSparse()
	groups := make([][]int, 16)
	for i := 0; i < 64; i++ {
		g := i / 4
		groups[g] = append(groups[g], i)
	}
	da, err := d.Aggregate(groups)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := s.Aggregate(groups)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.IsSparse() {
		t.Fatal("sparse aggregate should stay sparse")
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if da.At(i, j) != sa.At(i, j) {
				t.Fatalf("aggregate (%d,%d): dense %v sparse %v", i, j, da.At(i, j), sa.At(i, j))
			}
		}
	}

	// Non-integer, asymmetric volumes with explicit zeros, summed over
	// scattered (but sorted) groups: any change in the per-cell summation
	// order shows up in the low bits. Group counts run from one group to one
	// per entity, so output rows range from one cell to hundreds.
	rng := rand.New(rand.NewSource(25))
	for c := 0; c < 40; c++ {
		n := 8 + rng.Intn(400)
		s := NewSparse(n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			s.Set(i, j, rng.Float64()*1000-100)
			if rng.Intn(6) == 0 {
				s.Set(i, j, 0)
			}
		}
		k := 1 + rng.Intn(n)
		groups := make([][]int, k)
		for e, g := range rng.Perm(n) {
			groups[g%k] = append(groups[g%k], e) // ascending: e grows
		}
		if c%4 == 0 { // unsorted groups: the nested loop, in both modes
			for _, g := range groups {
				slices.Reverse(g)
			}
		}
		sa, err := s.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		da, err := s.ToDense().Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		if !sa.IsSparse() || !sa.Equal(da, 0) {
			t.Fatalf("case %d (n=%d k=%d): sparse aggregate differs from the dense nested loop", c, n, k)
		}
	}
}

func TestSparseSubmatrixExtendSymmetrize(t *testing.T) {
	d := Random(40, 0.3, 500, 7)
	d.Set(3, 9, 123) // break symmetry for Symmetrize coverage
	s := d.ToSparse()

	ids := []int{5, 0, 17, 33, 12, 39, 2}
	dsub, err := d.Submatrix(ids)
	if err != nil {
		t.Fatal(err)
	}
	ssub, err := s.Submatrix(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !ssub.IsSparse() {
		t.Fatal("sparse submatrix should stay sparse")
	}
	if !dsub.Equal(ssub, 0) {
		t.Error("submatrix differs across modes")
	}

	dx, err := d.ExtendZero(50)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := s.ExtendZero(50)
	if err != nil {
		t.Fatal(err)
	}
	if !sx.IsSparse() {
		t.Fatal("sparse extend should stay sparse")
	}
	if !dx.Equal(sx, 0) {
		t.Error("extend differs across modes")
	}
	for i := 0; i < 50; i++ {
		if dx.Label(i) != sx.Label(i) {
			t.Fatalf("extend label %d: dense %q sparse %q", i, dx.Label(i), sx.Label(i))
		}
	}

	dsym := d.Clone().Symmetrize()
	ssym := s.Clone().Symmetrize()
	if !ssym.IsSymmetric() {
		t.Error("sparse Symmetrize left an asymmetric matrix")
	}
	if !dsym.Equal(ssym, 0) {
		t.Error("symmetrize differs across modes")
	}

	dscaled := d.Clone().Scale(0.25)
	sscaled := s.Clone().Scale(0.25)
	if !dscaled.Equal(sscaled, 0) {
		t.Error("scale differs across modes")
	}
}

func TestSparseGenerators(t *testing.T) {
	d := Stencil2D(7, 5, 64, 8)
	s := Stencil2DSparse(7, 5, 64, 8)
	if !s.IsSparse() {
		t.Fatal("Stencil2DSparse not sparse")
	}
	if !d.Equal(s, 0) {
		t.Error("Stencil2DSparse entries differ from Stencil2D")
	}
	for i := 0; i < d.Order(); i++ {
		if d.Label(i) != s.Label(i) {
			t.Fatalf("label %d: dense %q sparse %q", i, d.Label(i), s.Label(i))
		}
	}

	r := RandomSparse(1000, 4, 100, 11)
	if !r.IsSparse() {
		t.Fatal("RandomSparse not sparse")
	}
	if !r.IsSymmetric() {
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

func TestSparseSetAddSemantics(t *testing.T) {
	s := NewSparse(5)
	s.Set(1, 2, 0) // setting an absent entry to zero must not materialize it
	if s.NNZ() != 0 {
		t.Errorf("Set(.,.,0) materialized an entry: nnz=%d", s.NNZ())
	}
	s.Add(1, 2, 3)
	s.Add(1, 2, -3) // stored zero: invisible to iteration
	if got := s.At(1, 2); got != 0 {
		t.Errorf("At after cancelling adds = %v", got)
	}
	count := 0
	s.ForEachNeighbor(1, func(int, float64) { count++ })
	if count != 0 {
		t.Errorf("ForEachNeighbor visited %d cancelled entries", count)
	}
	if s.RowNNZ(1) != 0 || s.NNZ() != 0 {
		t.Errorf("cancelled entry counted: rownnz=%d nnz=%d", s.RowNNZ(1), s.NNZ())
	}
	s.AddSym(0, 4, 2.5)
	if s.At(0, 4) != 2.5 || s.At(4, 0) != 2.5 {
		t.Error("AddSym did not mirror")
	}
	if math.Abs(s.TotalVolume()-5) > 0 {
		t.Errorf("TotalVolume = %v, want 5", s.TotalVolume())
	}
}
