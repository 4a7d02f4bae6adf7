package treematch

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
)

// greedySizedGroupsScan is the greedy fill as it stood before it touched
// neighbours only: the affinity of every ungrouped entity is updated and
// scanned per added member, ties broken towards the lowest entity index. It
// is the oracle greedySizedGroups must match group for group, member order
// included, on every matrix.
func greedySizedGroupsScan(m *comm.Matrix, sizes []int) [][]int {
	p := m.Order()
	seedOrder, buildOrder := greedyOrdersStable(m, sizes)

	grouped := make([]bool, p)
	affinity := make([]float64, p)
	out := make([][]int, len(sizes))
	next := 0
	for _, gi := range buildOrder {
		a := sizes[gi]
		if a == 0 {
			continue
		}
		for next < p && grouped[seedOrder[next]] {
			next++
		}
		seed := seedOrder[next]
		g := make([]int, 0, a)
		g = append(g, seed)
		grouped[seed] = true
		for i := range affinity {
			affinity[i] = 0
		}
		for len(g) < a {
			last := g[len(g)-1]
			bestE, bestAff := -1, -1.0
			for i := 0; i < p; i++ {
				if grouped[i] {
					continue
				}
				affinity[i] += m.At(last, i) + m.At(i, last)
				if affinity[i] > bestAff {
					bestE, bestAff = i, affinity[i]
				}
			}
			g = append(g, bestE)
			grouped[bestE] = true
		}
		out[gi] = g
	}
	return out
}

// greedyOrdersStable is greedyOrders as it stood before the seed order
// took the index as its last key: both orders by stable sorts, the seed
// order by descending row volume, the build order by descending size.
func greedyOrdersStable(m *comm.Matrix, sizes []int) (seedOrder, buildOrder []int) {
	vol := make([]float64, m.Order())
	seedOrder = identityIDs(m.Order())
	for i := range vol {
		vol[i] = m.RowVolume(i)
	}
	slices.SortStableFunc(seedOrder, func(x, y int) int { return descending(vol[x], vol[y]) })
	buildOrder = identityIDs(len(sizes))
	slices.SortStableFunc(buildOrder, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	return seedOrder, buildOrder
}

// TestGreedyOrdersMatchStable holds greedyOrders to the stable sorts on row
// volumes with ties (small integers and empty rows) and +Inf (a row of
// MaxFloat64 entries), reusing one fill; both kinds must occur.
func TestGreedyOrdersMatchStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kinds := map[string]int{}
	var f affinityFill
	for c := 0; c < 400; c++ {
		n := 1 + rng.Intn(300)
		m := comm.New(n)
		for range rng.Intn(3 * n) {
			v := float64(rng.Intn(4))
			if rng.Intn(12) == 0 {
				v = math.MaxFloat64
			}
			m.AddSym(rng.Intn(n), rng.Intn(n), v)
		}
		sizes := make([]int, 1+rng.Intn(20))
		for g := range sizes {
			sizes[g] = rng.Intn(5)
		}
		wantSeed, wantBuild := greedyOrdersStable(m, sizes)
		seed, build := greedyOrders(m, sizes, &f)
		if !slices.Equal(seed, wantSeed) || !slices.Equal(build, wantBuild) {
			t.Fatalf("case %d (n=%d): orders differ from the stable sorts\nseed  %v\nwant  %v\nbuild %v\nwant  %v", c, n, seed, wantSeed, build, wantBuild)
		}
		seen := map[float64]bool{}
		for i := range n {
			switch v := m.RowVolume(i); {
			case math.IsInf(v, 1):
				kinds["+Inf"]++
			case seen[v]:
				kinds["tie"]++
			default:
				seen[v] = true
			}
		}
	}
	for _, k := range []string{"+Inf", "tie"} {
		if kinds[k] == 0 {
			t.Errorf("no row volume of kind %s", k)
		}
	}
}

// checkFillMatchesScan requires greedySizedGroups to return exactly the
// groups of greedySizedGroupsScan, member order included.
func checkFillMatchesScan(t *testing.T, name string, m *comm.Matrix, sizes []int) {
	t.Helper()
	fill, scan := greedySizedGroups(m, sizes, new(affinityFill)), greedySizedGroupsScan(m, sizes)
	if !reflect.DeepEqual(fill, scan) {
		t.Errorf("%s sizes %v: greedy fill differs from the scan\nfill: %v\nscan: %v", name, sizes, fill, scan)
	}
}

// greedyFuzzMatrix decodes data into an order-n table read in its
// symmetric form: every byte pair sets one cell (i, j), the diagonal
// included, to an integer (ties), a third (roundings), zero or -0 over a
// value, a subnormal, a value near MaxFloat64 (sums overflow to +Inf),
// adds a symmetric pair, or sets a pair whose mirror is one ulp off.
func greedyFuzzMatrix(n int, data []byte) *comm.Matrix {
	a := denseZero(n)
	at := func(i int) byte { return data[i%len(data)] }
	for e := 0; 2*e+1 < len(data) && e < 4*n; e++ {
		shape, b := at(2*e), at(2*e+1)
		i, j := int(shape>>3)%n, int(b>>3)%n
		v := float64(b & 7)
		switch shape & 7 {
		case 0:
			a[i][j] = v
		case 1:
			a[i][j] = v / 3
		case 2:
			a[i][j] = 0
		case 3:
			a[i][j] = math.Copysign(0, -1)
		case 4:
			a[i][j] = v * math.SmallestNonzeroFloat64
		case 5:
			a[i][j] = math.MaxFloat64 / (v + 1)
		case 6:
			a[i][j] += v
			a[j][i] += v
		default:
			a[i][j] = v / 3
			a[j][i] = math.Nextafter(v/3, math.Inf(1))
		}
	}
	return symmetricForm(a)
}

// greedyFuzzSizes splits n entities into group sizes read from data back to
// front, with an empty group wherever a byte is a multiple of 5.
func greedyFuzzSizes(n int, data []byte) []int {
	var sizes []int
	for q, rest := 0, n; rest > 0; q++ {
		b := int(data[len(data)-1-q%len(data)])
		if b%5 == 0 {
			sizes = append(sizes, 0)
		}
		s := 1 + (b+q)%rest
		sizes = append(sizes, s)
		rest -= s
	}
	return sizes
}

// TestGreedyFillMatchesScanRandom holds the fill to the scan on random
// matrices of every kind greedyFuzzMatrix builds.
func TestGreedyFillMatchesScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for c := 0; c < 3000; c++ {
		data := make([]byte, 2+rng.Intn(96))
		rng.Read(data)
		if c%4 == 0 { // symmetric pairs only
			for i := 0; i < len(data); i += 2 {
				data[i] = data[i]&^7 | 6
			}
		}
		n := 1 + rng.Intn(24)
		checkFillMatchesScan(t, "random", greedyFuzzMatrix(n, data), greedyFuzzSizes(n, data))
	}
}

// FuzzGreedyFillExact holds greedySizedGroups to the scan oracle on decoded
// matrices and random size lists.
func FuzzGreedyFillExact(f *testing.F) {
	f.Add(uint8(9), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(12), []byte{0x0e, 0x13, 0x2e, 0x21, 0x46, 0x33, 0x17, 0x40, 0x3f, 0x0a})
	f.Add(uint8(6), []byte{0x04, 0x09, 0x0c, 0x1f, 0x05, 0x2a, 0x15, 0x10, 0x0d, 0x27})
	f.Add(uint8(20), []byte{0xff, 0x01, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63, 0x75, 0x86})
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(order)%24
		checkFillMatchesScan(t, "fuzz", greedyFuzzMatrix(n, data), greedyFuzzSizes(n, data))
	})
}
