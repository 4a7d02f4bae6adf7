package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleIsSymmetric is IsSymmetric as it stood before the cursor walk: every stored off-diagonal entry is compared with its
// mirror, read by a binary search of the mirror's row. Kept verbatim as the
// reference the walk must agree with.
func oracleIsSymmetric(m *Matrix) bool {
	for i := range m.rows {
		r := &m.rows[i]
		for p, c := range r.cols {
			j := int(c)
			if j != i && m.rows[j].at(i) != r.vals[p] {
				return false
			}
		}
	}
	return true
}

// checkIsSymmetric requires the cursor walk and the oracle to agree on m,
// and returns their verdict.
func checkIsSymmetric(t *testing.T, name string, m *Matrix) bool {
	t.Helper()
	got, want := m.IsSymmetric(), oracleIsSymmetric(m)
	if got != want {
		t.Fatalf("%s: IsSymmetric %v, oracle %v", name, got, want)
	}
	return got
}

func TestIsSymmetricCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	// storeZero stores an explicit zero of the given sign at (i, j).
	storeZero := func(m *Matrix, i, j int, zero float64) {
		m.Set(i, j, 1)
		m.Set(i, j, zero)
	}
	cases := []struct {
		name  string
		n     int
		build func(m *Matrix)
		want  bool
	}{
		{"order 0", 0, func(*Matrix) {}, true},
		{"order 1 with a diagonal entry", 1, func(m *Matrix) { m.Set(0, 0, 5) }, true},
		{"empty rows around one pair", 6, func(m *Matrix) { m.AddSym(1, 4, 2) }, true},
		{"diagonal entries, NaN included", 4, func(m *Matrix) {
			m.AddSym(0, 2, 1)
			m.Set(1, 1, 3)
			m.Set(2, 2, nan)
		}, true},
		{"stored zero above the diagonal only", 4, func(m *Matrix) { storeZero(m, 0, 2, 0) }, true},
		{"stored zero below the diagonal only", 4, func(m *Matrix) { storeZero(m, 3, 1, 0) }, true},
		{"stored zero before a matched entry", 4, func(m *Matrix) {
			storeZero(m, 3, 0, 0)
			m.AddSym(1, 3, 2)
		}, true},
		{"-0 against an absent mirror", 4, func(m *Matrix) {
			storeZero(m, 0, 2, negZero)
			storeZero(m, 3, 1, negZero)
		}, true},
		{"-0 against a stored 0", 3, func(m *Matrix) {
			storeZero(m, 0, 1, negZero)
			storeZero(m, 1, 0, 0)
		}, true},
		{"-0 against a value", 3, func(m *Matrix) {
			storeZero(m, 0, 1, negZero)
			m.Set(1, 0, 1)
		}, false},
		{"one direction, above the diagonal", 4, func(m *Matrix) { m.Set(0, 2, 1) }, false},
		{"one direction, below the diagonal, left at the end", 4, func(m *Matrix) {
			m.AddSym(0, 3, 1)
			m.Set(3, 2, 1)
		}, false},
		{"one direction, below the diagonal, stepped over", 4, func(m *Matrix) {
			m.Set(3, 0, 2)
			m.AddSym(1, 3, 1)
		}, false},
		{"mirrors differ", 3, func(m *Matrix) {
			m.Set(0, 1, 1)
			m.Set(1, 0, 2)
		}, false},
		{"NaN on both sides", 3, func(m *Matrix) { m.AddSym(0, 2, nan) }, false},
		{"NaN on one side", 3, func(m *Matrix) { m.Set(2, 0, nan) }, false},
	}
	for _, c := range cases {
		m := New(c.n)
		c.build(m)
		if got := checkIsSymmetric(t, c.name, m); got != c.want {
			t.Errorf("%s: IsSymmetric %v, want %v", c.name, got, c.want)
		}
	}
}

// TestIsSymmetricMatchesOracle draws symmetric matrices, diagonal entries
// and stored zeros included, then perturbs one entry, which breaks the
// symmetry unless it hits the diagonal or rewrites a value unchanged.
func TestIsSymmetricMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for c := 0; c < 300; c++ {
		n := 1 + rng.Intn(80)
		m := New(n)
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			m.AddSym(i, j, float64(1+rng.Intn(3)))
			if rng.Intn(5) == 0 {
				m.Set(i, j, 0)
				m.Set(j, i, 0)
			}
		}
		name := fmt.Sprintf("case %d (n=%d)", c, n)
		if !checkIsSymmetric(t, name, m) {
			t.Fatalf("%s: a symmetric matrix reported asymmetric", name)
		}
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			m.Set(i, j, m.At(i, j)+0.5)
		case 1:
			m.Set(i, j, 0)
		default:
			m.Set(i, j, math.NaN())
		}
		checkIsSymmetric(t, name+" perturbed", m)
	}
	// The place-scale input.
	r := RandomSparse(10000, 8, 100, 1)
	if !r.IsSymmetric() || !oracleIsSymmetric(r) {
		t.Fatal("place-scale random: reported asymmetric")
	}
	r.Add(9000, 17, 1)
	if r.IsSymmetric() || oracleIsSymmetric(r) {
		t.Fatal("place-scale random perturbed: reported symmetric")
	}
}

// FuzzIsSymmetric decodes the input into a small sparse matrix, two bytes
// per entry (the entry's shape and a small signed volume, as
// FuzzRefineGroupsBoundaryExact draws them), and requires the cursor walk
// and the oracle to agree.
func FuzzIsSymmetric(f *testing.F) {
	f.Add(uint8(5), []byte{0x04, 0x0b, 0x09, 0x13, 0x02, 0x1a})
	f.Add(uint8(9), []byte{0x10, 0x21, 0x05, 0x3c, 0x1e, 0x08, 0x23, 0x17})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		n := int(order) % 48
		m := New(n)
		for e := 0; n > 0 && 2*e+1 < len(data); e++ {
			shape, b := data[2*e], data[2*e+1]
			i, j := int(shape>>2)%n, int(b>>3)%n
			v := float64(int(b&7) - 3)
			switch shape & 3 {
			case 0:
				m.AddSym(i, j, v)
			case 1:
				m.Set(i, j, v)
			case 2: // an explicit zero, negative when v is
				m.Set(i, j, 1)
				m.Set(i, j, math.Copysign(0, v))
			default:
				if v < 0 {
					m.Set(i, j, math.NaN())
				} else {
					m.AddSym(i, j, v+0.25)
				}
			}
		}
		checkIsSymmetric(t, "fuzz", m)
	})
}
