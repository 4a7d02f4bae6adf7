package comm

import (
	"math/rand"
	"reflect"
	"testing"
)

// denseSymAdjacency is the definition SymmetricAdjacency must reproduce:
// every off-diagonal pair priced through At, zero sums left out.
func denseSymAdjacency(m *Matrix) (off, col []int32, w []float64) {
	off = []int32{0}
	for e := 0; e < m.Order(); e++ {
		for u := 0; u < m.Order(); u++ {
			if x := m.At(e, u) + m.At(u, e); u != e && x != 0 {
				col, w = append(col, int32(u)), append(w, x)
			}
		}
		off = append(off, int32(len(col)))
	}
	return off, col, w
}

func TestSymmetricAdjacencyMatchesAt(t *testing.T) {
	var reused SymAdjacency
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		m := New(n)
		for e := rng.Intn(3 * (n + 1)); e > 0 && n > 0; e-- {
			// Diagonal entries, zeros and repeated pairs included.
			m.AddSym(rng.Intn(n), rng.Intn(n), float64(rng.Intn(7))/4)
		}
		off, col, w := denseSymAdjacency(m)
		for _, a := range []*SymAdjacency{m.SymmetricAdjacency(nil), m.SymmetricAdjacency(&reused)} {
			if !reflect.DeepEqual(append([]int32{}, a.Off...), off) ||
				!reflect.DeepEqual(append([]int32(nil), a.Col...), col) ||
				!reflect.DeepEqual(append([]float64(nil), a.W...), w) {
				t.Fatalf("seed %d: got off %v col %v w %v\nwant off %v col %v w %v", seed, a.Off, a.Col, a.W, off, col, w)
			}
		}
	}
}
