package treematch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

// oracleRefineGroups is refineGroups as it stood before it walked neighbour
// lists: four O(a) sums through m.At for every (x, y) of every pair of
// groups. It is the reference the kernel must match swap for swap — equal cut
// is not enough, the committed artifacts pin which local optimum comes back.
func oracleRefineGroups(m *comm.Matrix, groups [][]int, passes int) {
	k := len(groups)
	intra := func(e int, g []int, excl int) float64 {
		var s float64
		for _, u := range g {
			if u != e && u != excl {
				s += m.At(e, u) + m.At(u, e)
			}
		}
		return s
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for g1 := 0; g1 < k; g1++ {
			for g2 := g1 + 1; g2 < k; g2++ {
				for xi := range groups[g1] {
					for yi := range groups[g2] {
						x, y := groups[g1][xi], groups[g2][yi]
						gain := intra(x, groups[g2], y) + intra(y, groups[g1], x) -
							intra(x, groups[g1], -1) - intra(y, groups[g2], -1)
						if gain > 1e-12 {
							groups[g1][xi], groups[g2][yi] = y, x
							improved = true
						}
					}
				}
			}
		}
		if !improved {
			return
		}
	}
}

func cloneGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// checkRefineExact runs the kernel and the oracle from the same start for
// 1–3 passes and requires slice-equal groups (member order included).
func checkRefineExact(t *testing.T, name string, m *comm.Matrix, groups [][]int) {
	t.Helper()
	for passes := 1; passes <= 3; passes++ {
		got, want := cloneGroups(groups), cloneGroups(groups)
		refineGroups(m, got, passes)
		oracleRefineGroups(m, want, passes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d passes from %v:\n got %v\nwant %v", name, passes, groups, got, want)
		}
	}
}

// shuffledGroups deals a random permutation of the entities into groups of
// the given sizes (entities beyond their total stay in no group).
func shuffledGroups(rng *rand.Rand, n int, sizes []int) [][]int {
	perm := rng.Perm(n)
	groups := make([][]int, len(sizes))
	for gi, s := range sizes {
		groups[gi], perm = perm[:s:s], perm[s:]
	}
	return groups
}

func equalSizes(k, a int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = a
	}
	return sizes
}

// randomRefineMatrix draws the shapes the kernel has to stay exact on: either
// storage mode, one-directional and mirrored entries, negative volumes,
// explicit stored zeros, and — values being small integers half the time —
// plenty of exact gain ties.
func randomRefineMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.New(n)
	if rng.Intn(2) == 0 {
		m = comm.NewSparse(n)
	}
	density := []float64{0.05, 0.2, 0.6, 1}[rng.Intn(4)]
	integer, negative := rng.Intn(2) == 0, rng.Intn(3) == 0
	val := func() float64 {
		v := rng.Float64() * 1000
		if integer {
			v = float64(1 + rng.Intn(3))
		}
		if negative && rng.Intn(3) == 0 {
			v = -v
		}
		return v
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() >= density {
				continue
			}
			switch rng.Intn(4) {
			case 0: // one direction only
				m.Set(i, j, val())
			case 1: // stored, then zeroed: an explicit zero in sparse mode
				m.Set(i, j, val())
				m.Set(i, j, 0)
			case 2: // cancels its mirror exactly
				v := val()
				m.Set(i, j, v)
				m.Set(j, i, -v)
			default:
				m.AddSym(i, j, val())
			}
		}
	}
	return m
}

func randomRefineCase(rng *rand.Rand) (*comm.Matrix, [][]int) {
	k := 2 + rng.Intn(5)
	sizes := make([]int, k)
	n := rng.Intn(3) // entities left in no group
	for i := range sizes {
		sizes[i] = rng.Intn(7) // uneven, empty groups included
		n += sizes[i]
	}
	return randomRefineMatrix(rng, n), shuffledGroups(rng, n, sizes)
}

func TestRefineGroupsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := []struct {
		name  string
		m     *comm.Matrix
		sizes []int
	}{
		{"dense random", comm.Random(24, 0.5, 2048, 3), equalSizes(4, 6)},
		{"dense all-to-all", allToAll(12, 7), equalSizes(3, 4)},
		{"ring", comm.Ring(30, 5), equalSizes(5, 6)},
		{"stencil 6x6 dense", comm.Stencil2D(6, 6, 64, 8), equalSizes(4, 9)},
		{"stencil 8x8 sparse", comm.Stencil2DSparse(8, 8, 64, 8), equalSizes(8, 8)},
		{"stencil 12x12 pairs", comm.Stencil2DSparse(12, 12, 64, 8), equalSizes(72, 2)},
		{"random sparse", comm.RandomSparse(96, 4, 1000, 5), equalSizes(12, 8)},
		{"bisection shape", comm.RandomSparse(128, 6, 1000, 9), equalSizes(2, 64)},
		{"bisection shape dense", comm.Random(64, 0.3, 100, 2), equalSizes(2, 32)},
		{"weighted sizes", comm.Stencil2DSparse(6, 5, 64, 8), []int{12, 8, 6, 4}},
		{"weighted dense", comm.Random(30, 0.4, 100, 7), []int{14, 9, 0, 7}},
	}
	for _, c := range cases {
		for trial := 0; trial < 4; trial++ {
			checkRefineExact(t, c.name, c.m, shuffledGroups(rng, c.m.Order(), c.sizes))
		}
	}
	// Zero-volume padding entities, the way PartitionAcross and Map extend a
	// matrix: the greedy seeding puts them wherever room is left.
	for _, p := range []int{13, 30, 61} {
		m, err := comm.Stencil2DSparse(p, 1, 64, 0).ExtendZero(64)
		if err != nil {
			t.Fatal(err)
		}
		checkRefineExact(t, "padded", m, greedyGroups(m, 8, 8))
		checkRefineExact(t, "padded shuffled", m, shuffledGroups(rng, 64, equalSizes(8, 8)))
	}
	// From the greedy seeding, the start every production call has.
	for _, a := range []int{2, 4, 16} {
		m := comm.Stencil2DSparse(16, 8, 64, 8)
		checkRefineExact(t, "greedy stencil", m, greedyGroups(m, a, m.Order()/a))
	}
	for seed := int64(0); seed < 300; seed++ {
		m, groups := randomRefineCase(rand.New(rand.NewSource(seed)))
		checkRefineExact(t, "random case", m, groups)
	}
}

// TestRefineGroupsNegativeOwnSums pins the one case in which a group pair
// with no edge between it still swaps: members that are repelled by their own
// group gain by leaving it, whoever they are traded for.
func TestRefineGroupsNegativeOwnSums(t *testing.T) {
	m := comm.NewSparse(8)
	m.AddSym(0, 1, -5)
	m.AddSym(4, 5, -3)
	m.AddSym(2, 3, 1)
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	checkRefineExact(t, "repelled", m, groups)
	got := cloneGroups(groups)
	refineGroups(m, got, 1)
	if reflect.DeepEqual(got, groups) {
		t.Fatal("the repelled members stayed put; the case no longer exercises the no-edge path")
	}
}

func TestRefineGroupsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		m, groups := randomRefineCase(rand.New(rand.NewSource(seed)))
		got, want := cloneGroups(groups), cloneGroups(groups)
		refineGroups(m, got, 3)
		oracleRefineGroups(m, want, 3)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// FuzzRefineGroupsExact decodes the input into a small matrix (two bytes per
// entry: which of the entry shapes, and a signed small-integer volume, so
// gain ties, cancelling mirrors and explicit zeros are all one mutation away)
// and a partition, and requires the kernel and the oracle to agree.
func FuzzRefineGroupsExact(f *testing.F) {
	f.Add(uint8(9), uint8(3), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(12), uint8(2), false, []byte{0x13, 0xf2, 0x21, 0x07, 0x33, 0x81, 0x40, 0x02})
	f.Add(uint8(16), uint8(5), true, []byte{0xff, 0x01, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63})
	f.Fuzz(func(t *testing.T, order, k uint8, sparse bool, data []byte) {
		n, ng := 2+int(order)%23, 2+int(k)%5
		if len(data) == 0 {
			return
		}
		m := comm.New(n)
		if sparse {
			m = comm.NewSparse(n)
		}
		at := func(i int) byte { return data[i%len(data)] }
		for e := 0; 2*e+1 < len(data) && e < 4*n; e++ {
			shape, b := at(2*e), at(2*e+1)
			i, j := int(shape>>2)%n, int(b>>3)%n
			v := float64(int(b&7) - 3)
			switch shape & 3 {
			case 0:
				m.Set(i, j, v)
			case 1:
				m.Set(i, j, v+0.5)
				m.Set(i, j, 0)
			case 2:
				m.Set(i, j, v)
				m.Set(j, i, -v)
			default:
				m.AddSym(i, j, v)
			}
		}
		// Deal the entities round-robin from a data-driven rotation; the
		// group a byte names takes the entity, so sizes come out uneven.
		groups := make([][]int, ng)
		for e := 0; e < n; e++ {
			g := int(at(e)+at(e+len(data)/2)) % (ng + 1)
			if g < ng { // g == ng: in no group
				groups[g] = append(groups[g], (e+int(order))%n)
			}
		}
		checkRefineExact(t, "fuzz", m, groups)
	})
}

// TestRefineGroupsAllocs pins the cost the simulated clock cannot see: a
// warmed-up call allocates nothing, whatever the order — the scheduler's
// admission path makes thousands of order-10 calls per second, and a make
// per call is a double-digit share of its allocation volume.
func TestRefineGroupsAllocs(t *testing.T) {
	for _, side := range []int{4, 16} {
		m := comm.Stencil2DSparse(side, side, 64, 8)
		start := shuffledGroups(rand.New(rand.NewSource(1)), side*side, equalSizes(side, side))
		groups := cloneGroups(start)
		run := func() {
			for gi := range start {
				copy(groups[gi], start[gi])
			}
			refineGroups(m, groups, 2)
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%d-task stencil: %v allocations per warmed-up call, want 0", side*side, allocs)
		}
	}
}
