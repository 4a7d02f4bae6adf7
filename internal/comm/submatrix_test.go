package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestSubmatrix(t *testing.T) {
	m := New(4)
	m.AddSym(0, 1, 10)
	m.AddSym(1, 2, 20)
	m.AddSym(2, 3, 30)
	m.SetLabel(2, "two")

	s, err := m.Submatrix([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Order() != 3 {
		t.Fatalf("order %d, want 3", s.Order())
	}
	if got := s.At(0, 2); got != 20 { // (2,1) of the original
		t.Errorf("At(0,2) = %v, want 20", got)
	}
	if got := s.At(1, 2); got != 10 { // (0,1) of the original
		t.Errorf("At(1,2) = %v, want 10", got)
	}
	if got := s.At(0, 1); got != 0 { // (2,0) of the original
		t.Errorf("At(0,1) = %v, want 0", got)
	}
	if s.Label(0) != "two" {
		t.Errorf("label = %q, want %q", s.Label(0), "two")
	}
	if _, _, ok := transposeExact(s); !ok {
		t.Error("submatrix of a symmetric matrix is not symmetric")
	}
}

func TestSubmatrixErrors(t *testing.T) {
	m := New(3)
	if _, err := m.Submatrix([]int{0, 3}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := m.Submatrix([]int{1, 1}); err == nil {
		t.Error("duplicate index accepted")
	}
	s, err := m.Submatrix(nil)
	if err != nil || s.Order() != 0 {
		t.Errorf("empty selection: order=%d err=%v", s.Order(), err)
	}
}

// TestSubmatrixMatchesAt checks every entry of sparse sub-matrices against
// At on the parent, for selections whose ids share their low bits (strides
// of powers of two) as well as scattered and unsorted ones.
func TestSubmatrixMatchesAt(t *testing.T) {
	m := RandomSparse(4096, 6, 100, 3)
	rng := rand.New(rand.NewSource(5))
	var sels [][]int
	for _, stride := range []int{8, 64, 1024, 37} {
		var ids []int
		for e := stride / 2; e < m.Order(); e += stride {
			ids = append(ids, e)
		}
		sels = append(sels, ids)
	}
	sels = append(sels, rng.Perm(m.Order())[:300], []int{4095, 0, 2048, 1})
	for _, ids := range sels {
		s, err := m.Submatrix(ids)
		if err != nil {
			t.Fatal(err)
		}
		for a, i := range ids {
			for b, j := range ids {
				if got, want := s.At(a, b), m.At(i, j); got != want {
					t.Fatalf("%d ids: At(%d,%d) = %v, want %v", len(ids), a, b, got, want)
				}
			}
		}
	}
}

// TestSubmatrixErrorPrecedence pins which error wins: the first offending id
// in ids order, the range check before the duplicate check — and that a
// failed call does not disturb the next one.
func TestSubmatrixErrorPrecedence(t *testing.T) {
	m := New(3)
	for _, c := range []struct {
		ids  []int
		want string
	}{
		{[]int{1, 1, -5}, "comm: submatrix: entity 1 appears twice"},
		{[]int{-5, 1, 1}, "comm: submatrix: entity -5 out of range [0,3)"},
		{[]int{0, 2, 3, 2}, "comm: submatrix: entity 3 out of range [0,3)"},
		{[]int{2, 0, 2, 7}, "comm: submatrix: entity 2 appears twice"},
	} {
		_, err := m.Submatrix(c.ids)
		if err == nil || err.Error() != c.want {
			t.Errorf("Submatrix(%v): error %v, want %q", c.ids, err, c.want)
		}
	}
	if s, err := m.Submatrix([]int{2, 1, 0}); err != nil || s.Order() != 3 {
		t.Errorf("valid call after failed ones: order %v, err %v", s, err)
	}
}

// TestSubmatrixConcurrent runs calls of different orders at once, the way
// placement.Hierarchical's worker pool carves nodes out of one matrix: under
// -race it checks that the calls share nothing they write.
func TestSubmatrixConcurrent(t *testing.T) {
	var ms []*Matrix
	var idss [][]int
	for i, n := range []int{40, 400, 4000} {
		m := RandomSparse(n, 4, 100, int64(i))
		ids := make([]int, 0, n/9+1)
		for e := n - 1; e >= 0; e -= 9 {
			ids = append(ids, e)
		}
		ms, idss = append(ms, m), append(idss, ids)
	}
	want := make([]*Matrix, len(ms))
	for i, m := range ms {
		s, err := m.Submatrix(idss[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				i := (w + r) % len(ms)
				s, err := ms[i].Submatrix(idss[i])
				if err != nil || !s.Equal(want[i], 0) {
					errs <- fmt.Sprintf("worker %d round %d order %d: err %v or wrong entries", w, r, ms[i].Order(), err)
					return
				}
				if _, err := ms[i].Submatrix([]int{0, 1, 0}); err == nil {
					errs <- "duplicate accepted under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSubmatrixAllocs pins a warmed call to the storage of its result — the
// matrix, its row table and one backing array each for columns and values —
// plus its len(ids)-sized position table: no order-sized scratch, nothing
// per row. Built into a caller's warmed Storage, a call allocates nothing.
func TestSubmatrixAllocs(t *testing.T) {
	m := RandomSparse(5000, 8, 100, 1)
	ids := make([]int, 0, 81)
	for e := 7; len(ids) < 81; e += 61 {
		ids = append(ids, e)
	}
	if _, err := m.Submatrix(ids); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.Submatrix(ids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("%v allocations per warmed Submatrix, want ≤ 5", allocs)
	}
	// Into a storage that has held a call as large: nothing, sorted or not.
	var st Storage
	for _, ids := range [][]int{ids, {4000, 7, 129, 68}} {
		if _, err := m.SubmatrixIn(&st, ids); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { m.SubmatrixIn(&st, ids) }); allocs != 0 {
			t.Errorf("%v allocations per SubmatrixIn into warmed storage, want 0", allocs)
		}
	}
}
