package treematch

import (
	"testing"

	"repro/internal/comm"
)

// TestSFCOrderCoversAdjacent checks the two space-filling-curve properties
// every shape must satisfy: the order is a permutation of the cells, and
// consecutive cells are grid-adjacent (unit step in one coordinate).
func TestSFCOrderCoversAdjacent(t *testing.T) {
	for _, dims := range [][]int{
		{4, 4},    // Hilbert
		{8, 8},    // Hilbert
		{2, 3},    // snake
		{4, 6},    // snake (non-square)
		{3, 3},    // snake (square, not power of two)
		{2, 2, 4}, // snake, 3-D
		{5},       // 1-D
	} {
		total := 1
		for _, d := range dims {
			total *= d
		}
		order := SFCOrder(dims)
		if len(order) != total {
			t.Fatalf("%v: SFCOrder has %d cells, want %d", dims, len(order), total)
		}
		seen := make([]bool, total)
		for _, id := range order {
			if id < 0 || id >= total || seen[id] {
				t.Fatalf("%v: order %v is not a permutation", dims, order)
			}
			seen[id] = true
		}
		coords := func(id int) []int {
			c := make([]int, len(dims))
			for k := len(dims) - 1; k >= 0; k-- {
				c[k] = id % dims[k]
				id /= dims[k]
			}
			return c
		}
		for i := 1; i < total; i++ {
			a, b := coords(order[i-1]), coords(order[i])
			diff := 0
			for k := range dims {
				d := a[k] - b[k]
				if d < 0 {
					d = -d
				}
				diff += d
			}
			if diff != 1 {
				t.Fatalf("%v: cells %v and %v at curve positions %d,%d are not adjacent",
					dims, a, b, i-1, i)
			}
		}
	}
}

func TestSFCSeedChainsNeighbours(t *testing.T) {
	// A ring matrix laid out along the curve keeps every heavy pair on
	// adjacent cells except the wrap edge.
	dims := []int{4, 4}
	m := comm.New(16)
	for i := 0; i < 16; i++ {
		m.AddSym(i, (i+1)%16, 50)
	}
	seed, err := SFCSeed(dims, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SFCSeed(dims, comm.New(7)); err == nil {
		t.Error("mis-sized matrix accepted")
	}
	seen := make([]bool, 16)
	for _, c := range seed {
		if seen[c] {
			t.Fatalf("seed %v is not a permutation", seed)
		}
		seen[c] = true
	}
}
