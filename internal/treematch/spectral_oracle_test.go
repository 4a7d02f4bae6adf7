package treematch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
)

// fiedlerOracle is fiedlerVector as it stood before the exact-repeat exit:
// every one of the fiedlerIters sweeps, every time. seen, when not nil,
// observes the start vector and each sweep's iterate; it reads only, so the
// arithmetic is the historical loop's.
func fiedlerOracle(m *comm.Matrix, seen func(x []float64)) []float64 {
	n := m.Order()
	if n < 2 {
		return nil
	}
	adj := m.SymmetricAdjacency(nil)
	off, col, w := adj.Off, adj.Col, adj.W
	deg := make([]float64, n)
	for i := range deg {
		for p := off[i]; p < off[i+1]; p++ {
			deg[i] += w[p]
		}
	}
	maxDeg := 0.0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg == 0 {
		return nil
	}
	c := 2*maxDeg + 1
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) - float64(n-1)/2
	}
	if seen != nil {
		seen(x)
	}
	y := make([]float64, n)
	for it := 0; it < fiedlerIters; it++ {
		for i := 0; i < n; i++ {
			s := (c - deg[i]) * x[i]
			for p := off[i]; p < off[i+1]; p++ {
				s += w[p] * x[col[p]]
			}
			y[i] = s
		}
		mean := 0.0
		for _, v := range y {
			mean += v
		}
		mean /= float64(n)
		norm := 0.0
		for i := range y {
			y[i] -= mean
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			return nil
		}
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
		if seen != nil {
			seen(x)
		}
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fiedlerPaths is the state of one Fiedler differential: a scratch reused
// across every call it checks (so the kernel always starts on stale vectors)
// and how many calls took each path, as the oracle's iterates classify them.
type fiedlerPaths struct {
	sc                                spectralScratch
	fixed, alternating, full, noSplit int
}

// check requires fiedlerVector to return the oracle's result bit for bit,
// nil included, and counts the path: the first iterate that repeats the one
// before it (fixed) or the one before that (alternating) is where the kernel
// stops, and without either it runs every sweep.
func (ps *fiedlerPaths) check(t *testing.T, name string, m *comm.Matrix) {
	t.Helper()
	var last, before []float64 // the two iterates preceding x
	k, path := 0, &ps.full
	want := fiedlerOracle(m, func(x []float64) {
		switch {
		case path != &ps.full:
			return
		case k >= 1 && sameBits(x, last):
			path = &ps.fixed
		case k >= 2 && sameBits(x, before):
			path = &ps.alternating
		}
		last, before = append(before[:0], x...), last
		k++
	})
	if want == nil {
		path = &ps.noSplit
	}
	got := fiedlerVector(m, &ps.sc)
	if (got == nil) != (want == nil) || !sameBits(got, want) {
		t.Fatalf("%s (order %d): fiedlerVector\n got %v\nwant %v", name, m.Order(), got, want)
	}
	*path++
}

// checkSplits checks m and every submatrix one split of m's spectral order
// induces: the inputs of every view of up to three groups, and of the equal
// 2- and 4-way splits.
func (ps *fiedlerPaths) checkSplits(t *testing.T, name string, m *comm.Matrix) {
	t.Helper()
	ps.check(t, name, m)
	order := spectralOrder(m, new(spectralScratch))
	ids := identityIDs(m.Order())
	for cut := 1; cut < len(ids); cut++ {
		lo, hi := splitByOrder(ids, order, cut)
		for _, part := range [][]int{lo, hi} {
			sub, err := m.Submatrix(part)
			if err != nil {
				t.Fatal(err)
			}
			ps.check(t, name, sub)
		}
	}
}

// fiedlerWeights are the volumes the fuzz target draws from: zeros, ties,
// fractions, and values whose degree sums overflow or vanish.
var fiedlerWeights = []float64{0, 1, 1.5, 2, 3, 0.5, 0.25, 7, 64, 4096, 1e-300, 1e300, 2e300, math.MaxFloat64, 1e10, 8}

// FuzzFiedlerVector decodes an order up to 24 (the low seven bits of the
// first byte) and then one entry per three bytes (row, column,
// weight index), and requires fiedlerVector to match the oracle. The seeds
// reach each path: a fixed point, an alternation that starts on either
// parity, and all 400 sweeps.
func FuzzFiedlerVector(f *testing.F) {
	f.Add([]byte{0x3, 0x7a, 0x9f, 0x7, 0x98, 0x5b, 0x1, 0xfa, 0xa6, 0x8})
	f.Add([]byte{0x3, 0x28, 0x11, 0x3, 0x24, 0xfa, 0x6, 0x51, 0x82, 0x8})
	f.Add([]byte{0x3, 0x4b, 0x77, 0x8, 0xe5, 0xe3, 0x6, 0xe4, 0xfb, 0x3})
	f.Add([]byte{0x4, 0x6f, 0x38, 0x2, 0xd0, 0xc, 0x1, 0x2e, 0x36, 0x1, 0x36, 0xce, 0x8})
	f.Add([]byte{0x85, 0, 1, 13, 1, 2, 11, 2, 3, 12, 3, 4, 2, 4, 0, 0})
	f.Add([]byte{24, 0, 23, 9, 5, 6, 15, 7, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]&0x7f) % 25
		a := denseZero(n)
		for rec := data[1:]; len(rec) >= 3 && n > 0; rec = rec[3:] {
			a[int(rec[0])%n][int(rec[1])%n] = fiedlerWeights[int(rec[2])%len(fiedlerWeights)]
		}
		new(fiedlerPaths).check(t, "fuzz", symmetricForm(a))
	})
}

// TestSpectralMemoMatchesFresh shares one memo across a sequence of
// capacity views of one matrix, as the scheduler does across the probes of
// one job, and requires every partition to equal a memo-less one while each
// distinct entity subset is ordered exactly once.
func TestSpectralMemoMatchesFresh(t *testing.T) {
	a := comm.Stencil2DSparse(6, 4, 64, 8)
	views := [][]int{
		{12, 12}, {10, 6, 8}, {6, 6, 6, 6}, {12, 12}, {8, 8, 8}, {5, 7, 6, 6},
		{4, 4, 4, 4, 4, 4}, {10, 6, 8}, {9, 3, 4, 8}, {6, 6, 6, 6}, {2, 5, 3, 6, 4, 4},
	}
	var memo SpectralMemo
	asked := map[string]bool{}
	for _, caps := range views {
		got, err := PartitionAcrossWeighted(a, caps, Options{Spectral: &memo})
		if err != nil {
			t.Fatal(err)
		}
		// A memo of its own records every subset this view asks for: no
		// subset repeats inside one partition.
		var own SpectralMemo
		want, err := PartitionAcrossWeighted(a, caps, Options{Spectral: &own})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("caps %v: with the shared memo %v, fresh %v", caps, got, want)
		}
		if fresh, err := PartitionAcrossWeighted(a, caps, Options{}); err != nil || !reflect.DeepEqual(fresh, want) {
			t.Fatalf("caps %v: without a memo %v (%v), with a fresh one %v", caps, fresh, err, want)
		}
		for _, e := range own.entries {
			asked[fmt.Sprint(e.ids)] = true
		}
	}
	roots := 0
	for _, e := range memo.entries {
		if isIdentity(e.ids, a.Order()) {
			roots++
		}
	}
	if len(memo.entries) != len(asked) || roots != 1 {
		t.Fatalf("the memo ordered %d subsets (%d roots) for %d distinct ones asked; want each once",
			len(memo.entries), roots, len(asked))
	}
	// Bound to a, the memo must pass another matrix of the same order by:
	// b's spectral groups, before refinement, are its own.
	b := comm.RandomSparse(a.Order(), 3, 100, 7)
	if reflect.DeepEqual(spectralOrder(a, new(spectralScratch)), spectralOrder(b, new(spectralScratch))) {
		t.Fatal("a and b share a spectral order; b cannot tell whose orders it was served")
	}
	before := len(memo.entries)
	for _, caps := range views {
		sizes := weightedSizes(b.Order(), caps)
		got, err := spectralPartitionSized(b, identityIDs(b.Order()), sizes, &memo, new(candidateSet))
		if err != nil {
			t.Fatal(err)
		}
		want, err := spectralPartitionSized(b, identityIDs(b.Order()), sizes, nil, new(candidateSet))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("matrix b, sizes %v: through a's memo %v, fresh %v", sizes, got, want)
		}
	}
	if len(memo.entries) != before || memo.m != a {
		t.Fatalf("matrix b reached a's memo: %d entries, was %d", len(memo.entries), before)
	}
}

// TestSpectralAllocs pins the candidate set the recursion shares: a sized
// spectral partition of a 16-task stencil, three Fiedler calls, allocates 28
// times (one of them the sub-matrix storage, made on first use), where
// building each call its own adjacency and vectors took 66, each sub-matrix
// its own storage 45, each split two id lists 32, and the adjacency's
// column chains, built for matrices that were not symmetric, 30.
func TestSpectralAllocs(t *testing.T) {
	m := comm.Stencil2DSparse(4, 4, 64, 8)
	run := func() {
		if _, err := spectralPartitionSized(m, identityIDs(16), []int{5, 4, 4, 3}, nil, new(candidateSet)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 28 {
		t.Errorf("%v allocations per sized partition, want <= 28", allocs)
	}
}
