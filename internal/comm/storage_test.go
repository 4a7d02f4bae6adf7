package comm

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// sameMatrix requires two matrices to be stored alike bit for bit: order,
// padding, every entity's name, and every row's columns and values,
// explicit zeros included. A row must also be capped to its own entries, so
// that growing it through AddSym reallocates instead of overwriting the next.
func sameMatrix(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.n != want.n || got.pad != want.pad || (got.labels == nil) != (want.labels == nil) {
		t.Fatalf("%s: order %d pad %d labelled %v, want %d, %d, %v",
			what, got.n, got.pad, got.labels != nil, want.n, want.pad, want.labels != nil)
	}
	for i := 0; i < got.n; i++ {
		if got.Label(i) != want.Label(i) {
			t.Fatalf("%s: Label(%d) = %q, want %q", what, i, got.Label(i), want.Label(i))
		}
		g, w := got.rows[i], want.rows[i]
		if len(g.cols) != len(w.cols) || len(g.vals) != len(w.cols) || cap(g.cols) != len(g.cols) || cap(g.vals) != len(g.vals) {
			t.Fatalf("%s: row %d holds %d/%d entries (caps %d/%d), want %d",
				what, i, len(g.cols), len(g.vals), cap(g.cols), cap(g.vals), len(w.cols))
		}
		for p := range g.cols {
			if g.cols[p] != w.cols[p] || math.Float64bits(g.vals[p]) != math.Float64bits(w.vals[p]) {
				t.Fatalf("%s: row %d entry %d = (%d, %v), want (%d, %v)", what, i, p, g.cols[p], g.vals[p], w.cols[p], w.vals[p])
			}
		}
	}
}

// labelled returns a copy of m with every entity named.
func labelled(m *Matrix) *Matrix {
	c, _ := m.ExtendZero(m.n)
	for i := 0; i < c.n; i++ {
		c.SetLabel(i, "e"+strconv.Itoa(i))
	}
	return c
}

// TestStorageStaleMatchesFresh runs SubmatrixIn, AggregateIn and PadView
// through one Storage in an order that makes every call find the storage
// left larger or smaller by the one before — large, small, large, with
// labels on and off, sorted and unsorted ids and groups — and requires each
// result to be stored exactly as a fresh call stores it.
func TestStorageStaleMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := RandomSparse(3000, 8, 100, 4)
	frac := Random(60, 0.3, 7.3, 2) // non-integer volumes
	for i := 0; i < frac.n; i += 7 {
		frac.AddSym(i, (i*13+5)%frac.n, 0.1)
		frac.AddSym(i, i, 0.25) // diagonal entries
	}
	padded, _ := big.ExtendZero(3100)
	var st Storage
	sub := func(m *Matrix, ids []int) {
		t.Helper()
		want, err := m.Submatrix(ids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SubmatrixIn(&st, ids)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, "submatrix", got, want)
	}
	agg := func(m *Matrix, groups [][]int) {
		t.Helper()
		want, err := m.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AggregateIn(&st, groups)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, "aggregate", got, want)
		if m.n > 100 {
			return
		}
		for a := range groups { // the definition, cell by cell
			for b := range groups {
				// A cell below the diagonal is its mirror's sum.
				var s float64
				for _, i := range groups[min(a, b)] {
					for _, j := range groups[max(a, b)] {
						s += m.At(i, j)
					}
				}
				if got.At(a, b) != s {
					t.Fatalf("aggregate cell (%d,%d) = %v, want %v", a, b, got.At(a, b), s)
				}
			}
		}
	}
	pad := func(m *Matrix, order int) {
		t.Helper()
		got, err := m.PadView(&st, order)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				var want float64
				if i < m.n && j < m.n {
					want = m.At(i, j)
				}
				if got.At(i, j) != want {
					t.Fatalf("PadView(%d) At(%d,%d) = %v, want %v", order, i, j, got.At(i, j), want)
				}
			}
		}
		if want := "v" + strconv.Itoa(order-1); order > m.n && got.Label(order-1) != want {
			t.Fatalf("PadView(%d) names its last entity %q", order, got.Label(order-1))
		}
	}
	groupsOf := func(n, k int, sorted bool) [][]int {
		perm := rng.Perm(n)
		groups := make([][]int, k)
		for i, e := range perm {
			groups[i%k] = append(groups[i%k], e)
		}
		if sorted {
			for _, g := range groups {
				slices.Sort(g)
			}
		}
		return groups
	}

	sub(labelled(big), rng.Perm(3000)[:700])             // large, unsorted, labelled
	sub(big, []int{5, 6, 7, 8})                          // small, sorted, unlabelled
	sub(big, rng.Perm(3000)[:900])                       // large again, unlabelled
	sub(padded, append(rng.Perm(3000)[:20], 3050, 3001)) // padding names follow
	agg(big, groupsOf(3000, 300, true))
	sub(labelled(frac), rng.Perm(60)[:12])
	agg(frac, groupsOf(60, 6, false)) // the nested-loop path
	agg(frac, groupsOf(60, 70, true)) // more groups than entities, some empty
	pad(frac, 64)
	sub(big, nil)
	agg(frac, groupsOf(60, 4, true))
	pad(big, 3000)
	sub(big, rng.Perm(3000)[:1000])
}

// TestLabelRange holds Label and SetLabel to the Matrix contract: an index
// outside the order panics as At does, instead of naming an entity that
// does not exist.
func TestLabelRange(t *testing.T) {
	m := New(3)
	e, _ := m.ExtendZero(5)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Label(-1)", func() { m.Label(-1) }},
		{"Label(3)", func() { m.Label(3) }},
		{"SetLabel(3)", func() { m.SetLabel(3, "x") }},
		{"extended Label(5)", func() { e.Label(5) }},
		{"At(3, 0)", func() { m.At(3, 0) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != "comm: index out of range" {
					t.Errorf("%s: recovered %v, want the range panic", c.name, r)
				}
			}()
			c.call()
		}()
	}
	if got := m.Label(2); got != "t2" {
		t.Errorf("Label(2) = %q, want t2", got)
	}
}

// TestExtendZeroLazyNames: padding names are computed when read, not
// formatted per entity up front, and naming one entity of an extended
// matrix keeps every other name, the padding's "v<i>" included.
func TestExtendZeroLazyNames(t *testing.T) {
	m := Ring(3, 5)
	e, err := m.ExtendZero(6)
	if err != nil {
		t.Fatal(err)
	}
	if e.labels != nil {
		t.Errorf("ExtendZero of an unnamed matrix formatted %d names", len(e.labels))
	}
	want := []string{"t0", "t1", "t2", "v3", "v4", "v5"}
	for i, w := range want {
		if got := e.Label(i); got != w {
			t.Errorf("Label(%d) = %q, want %q", i, got, w)
		}
	}
	e.SetLabel(1, "one")
	want[1] = "one"
	e.SetLabel(4, "four")
	want[4] = "four"
	for i, w := range want {
		if got := e.Label(i); got != w {
			t.Errorf("after SetLabel: Label(%d) = %q, want %q", i, got, w)
		}
	}
	// Extending again keeps the names and pads on.
	x, err := e.ExtendZero(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range append(want, "v6", "v7") {
		if got := x.Label(i); got != w {
			t.Errorf("re-extended: Label(%d) = %q, want %q", i, got, w)
		}
	}
	if m.labels != nil {
		t.Error("naming the extension named the original")
	}
}
