package comm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// storedAsymmetry walks the stored entries the way a symmetry test of the
// sparse rows would: every stored entry is compared, bit for bit, with its
// mirror, read by a binary search of the mirror's row, and must not be a
// stored zero. It returns the first entry that fails, or ok.
func storedAsymmetry(m *Matrix) (i, j int, ok bool) {
	for i := range m.rows {
		r := &m.rows[i]
		for p, c := range r.cols {
			j := int(c)
			q, found := m.rows[j].find(i)
			if r.vals[p] == 0 || !found || math.Float64bits(m.rows[j].vals[q]) != math.Float64bits(r.vals[p]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// checkIsSymmetric requires m to equal its transpose bit for bit, read both
// through its stored entries and cell by cell through At.
func checkIsSymmetric(t *testing.T, name string, m *Matrix) {
	t.Helper()
	if i, j, ok := storedAsymmetry(m); !ok {
		t.Fatalf("%s: stored entry (%d,%d) = %v has mirror %v", name, i, j, m.At(i, j), m.At(j, i))
	}
	if i, j, ok := transposeExact(m); !ok {
		t.Fatalf("%s: cells (%d,%d) and (%d,%d) differ: %v and %v", name, i, j, j, i, m.At(i, j), m.At(j, i))
	}
}

// TestIsSymmetricCases: every way a matrix is written or derived leaves it
// equal to its transpose, on the shapes a symmetry test had to tell apart —
// empty rows, diagonal entries, zeros of either sign, a pair written from
// both ends, sums that round or overflow, and files that are not symmetric.
func TestIsSymmetricCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	read := func(in string) func() *Matrix {
		return func() *Matrix {
			m, err := Read(strings.NewReader(in))
			if err != nil {
				panic(err)
			}
			return m
		}
	}
	built := func(n int, build func(m *Matrix)) func() *Matrix {
		return func() *Matrix { m := New(n); build(m); return m }
	}
	oneWay := read("4\n0 0 1 0\n0 0 0 0\n0 0 0 0\n2 0 0.5 0\n")
	cases := []struct {
		name string
		make func() *Matrix
	}{
		{"order 0", built(0, func(*Matrix) {})},
		{"order 1 with a diagonal entry", built(1, func(m *Matrix) { m.AddSym(0, 0, 5) })},
		{"empty rows around one pair", built(6, func(m *Matrix) { m.AddSym(1, 4, 2) })},
		{"diagonal entries", built(4, func(m *Matrix) {
			m.AddSym(0, 2, 1)
			m.AddSym(1, 1, 3)
			m.AddSym(2, 2, 0.5)
		})},
		{"zero above the diagonal", built(4, func(m *Matrix) { m.AddSym(0, 2, 0) })},
		{"-0 below the diagonal", built(4, func(m *Matrix) { m.AddSym(3, 1, negZero) })},
		{"zero before a matched entry", built(4, func(m *Matrix) {
			m.AddSym(3, 0, 0)
			m.AddSym(1, 3, 2)
		})},
		{"a pair written from both ends", built(3, func(m *Matrix) {
			m.AddSym(0, 1, 1)
			m.AddSym(1, 0, 2)
			m.AddSym(0, 1, 0.1)
		})},
		{"sums that round", built(3, func(m *Matrix) {
			m.AddSym(2, 0, 1e16)
			m.AddSym(0, 2, 1)
			m.AddSym(2, 0, 1)
		})},
		{"a sum that overflows", built(3, func(m *Matrix) {
			m.AddSym(0, 2, math.MaxFloat64)
			m.AddSym(2, 0, math.MaxFloat64)
		})},
		{"subnormal volumes", built(3, func(m *Matrix) { m.AddSym(1, 2, 5e-324) })},
		{"a file with one direction per pair", oneWay},
		{"a file whose mirrors differ", read("3\n0 1 2\n3 0 0.1\n0.7 0.2 0\n")},
		{"a file with -0 against a value", read("3\n0 -0 0\n1 0 0\n0 0 -0\n")},
		{"a file with an odd subnormal", read("2\n0 5e-324\n0 0\n")},
		{"the submatrix of a one-way file", func() *Matrix {
			s, err := oneWay().Submatrix([]int{3, 0, 2})
			if err != nil {
				panic(err)
			}
			return s
		}},
		{"the extension of a one-way file", func() *Matrix {
			e, err := oneWay().ExtendZero(6)
			if err != nil {
				panic(err)
			}
			return e
		}},
		{"the padded view of a one-way file", func() *Matrix {
			var st Storage
			v, err := oneWay().PadView(&st, 7)
			if err != nil {
				panic(err)
			}
			return v
		}},
		{"the aggregate of a one-way file", func() *Matrix {
			a, err := oneWay().Aggregate([][]int{{3, 1}, {2, 0}})
			if err != nil {
				panic(err)
			}
			return a
		}},
	}
	for _, c := range cases {
		checkIsSymmetric(t, c.name, c.make())
	}
}

// TestIsSymmetricMatchesOracle draws matrices through AddSym, zero volumes
// and pairs written from both ends included, then derives an aggregate, a
// submatrix, an extension and a padded view of each, and requires every one
// to equal its transpose. The aggregates add each cell's two directions in
// different orders, so they test the mirroring as well.
func TestIsSymmetricMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var st Storage
	for c := 0; c < 300; c++ {
		n := 1 + rng.Intn(80)
		m := New(n)
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := float64(rng.Intn(4)) + 0.1*float64(rng.Intn(10))
			m.AddSym(i, j, v)
		}
		name := fmt.Sprintf("case %d (n=%d)", c, n)
		checkIsSymmetric(t, name, m)

		perm := rng.Perm(n)
		var groups [][]int
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(5))
			groups = append(groups, perm[lo:hi])
			lo = hi
		}
		agg, err := m.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		checkIsSymmetric(t, name+" aggregate", agg)
		sub, err := m.Submatrix(perm[:1+rng.Intn(n)])
		if err != nil {
			t.Fatal(err)
		}
		checkIsSymmetric(t, name+" submatrix", sub)
		ext, err := sub.ExtendZero(n + 2)
		if err != nil {
			t.Fatal(err)
		}
		checkIsSymmetric(t, name+" extension", ext)
		pad, err := agg.PadView(&st, len(groups)+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		checkIsSymmetric(t, name+" padded view", pad)
	}
	// The place-scale input, through its stored entries alone: a cell by
	// cell comparison would take 10⁸ lookups.
	if i, j, ok := storedAsymmetry(RandomSparse(10000, 8, 100, 1)); !ok {
		t.Fatalf("place-scale random: stored entry (%d,%d) has no equal mirror", i, j)
	}
}

// FuzzIsSymmetric decodes the input into a small matrix, two bytes per
// AddSym (the entry's shape and its volume, from zeros of either sign to
// subnormals and the largest finite volume), groups it in runs whose
// lengths the data also gives, and requires the matrix and its aggregate
// to equal their transposes.
func FuzzIsSymmetric(f *testing.F) {
	f.Add(uint8(5), []byte{0x04, 0x0b, 0x09, 0x13, 0x02, 0x1a})
	f.Add(uint8(9), []byte{0x10, 0x21, 0x05, 0x3c, 0x1e, 0x08, 0x23, 0x17})
	f.Add(uint8(0), []byte{})
	volumes := []float64{0, math.Copysign(0, -1), 1, 2.5, 0.1, 5e-324, 1e16, math.MaxFloat64}
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		n := int(order) % 48
		m := New(n)
		for e := 0; n > 0 && 2*e+1 < len(data); e++ {
			shape, b := data[2*e], data[2*e+1]
			m.AddSym(int(shape>>2)%n, int(b>>3)%n, volumes[b&7])
		}
		checkIsSymmetric(t, "fuzz", m)
		var groups [][]int
		for lo, e := 0, 0; lo < n; e++ {
			size := 1
			if e < len(data) {
				size += int(data[e] & 3)
			}
			hi := min(n, lo+size)
			groups = append(groups, make([]int, 0, hi-lo))
			for i := hi - 1; i >= lo; i-- {
				groups[len(groups)-1] = append(groups[len(groups)-1], i)
			}
			lo = hi
		}
		agg, err := m.Aggregate(groups)
		if err != nil {
			t.Fatal(err)
		}
		checkIsSymmetric(t, "fuzz aggregate", agg)
	})
}
