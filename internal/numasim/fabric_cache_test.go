package numasim

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// The cached fabric distance table must price every cluster-node pair
// exactly like the reference tree walk, on every fabric depth the spec
// language can express.

// fabricCacheSpecs spans flat, racked, and pod-depth tree fabrics (even and
// uneven node counts) plus shaped torus/dragonfly fabrics, which price along
// routed edge paths instead of the per-level tables.
var fabricCacheSpecs = []string{
	"cluster:6 pack:1 core:2",
	"rack:2 node:3 pack:1 core:2",
	"rack:3 node:2,3,1 pack:1 core:2",
	"pod:2 rack:2 node:2 pack:1 core:2",
	"pod:2 rack:2,1 node:2 pack:1 core:4",
	"torus:2x3 pack:1 core:2",
	"torus:2x2x2 pack:1 core:1",
	"dragonfly:2,2,2 pack:1 core:2",
}

func TestFabricLatencyCacheMatchesWalk(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		plat, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := plat.Machine()
		n := len(m.Topology().ClusterNodes())
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				cached := m.fabricLatencyCycles(from, to)
				walked := m.fabricLatencyCyclesWalk(from, to)
				if cached != walked {
					t.Errorf("%s: latency(%d,%d) cached %v != walked %v",
						spec, from, to, cached, walked)
				}
			}
		}
	}
}

// TestFabricLatencyCacheCustomAttrs pins the cache against a spec whose link
// latencies differ per level, so a wrong level/group indexing cannot cancel
// out.
func TestFabricLatencyCacheCustomAttrs(t *testing.T) {
	def := topology.DefaultAttrs()
	def.NetLatencyCycles = 101
	def.UplinkLatencyCycles = 1009
	def.PodUplinkLatencyCycles = 10007
	plat, err := NewPlatformAttrs("pod:2 rack:2 node:2 pack:1 core:2", def, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := plat.Machine()
	n := len(m.Topology().ClusterNodes())
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if cached, walked := m.fabricLatencyCycles(from, to), m.fabricLatencyCyclesWalk(from, to); cached != walked {
				t.Errorf("latency(%d,%d) cached %v != walked %v", from, to, cached, walked)
			}
		}
	}
	// Spot-check the absolute prices: same rack = 2 NICs; across racks adds
	// 2 uplinks; across pods adds 2 pod uplinks on top.
	if got := m.fabricLatencyCycles(0, 1); got != 2*101 {
		t.Errorf("same-rack latency %v, want %v", got, 2*101)
	}
	if got := m.fabricLatencyCycles(0, 2); got != 2*101+2*1009 {
		t.Errorf("cross-rack latency %v, want %v", got, 2*101+2*1009)
	}
	if got := m.fabricLatencyCycles(0, 4); got != 2*101+2*1009+2*10007 {
		t.Errorf("cross-pod latency %v, want %v", got, 2*101+2*1009+2*10007)
	}
}

func TestFabricBandwidthCacheMatchesWalk(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		plat, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := plat.Machine()
		n := len(m.Topology().ClusterNodes())
		// Exercise the undeclared state, full per-edge counts, and a mix of
		// contended and uncontended (0) edges.
		ne := m.NumFabricEdges()
		full := make([]int, ne)
		mixed := make([]int, ne)
		for e := range full {
			full[e] = 1 + e%3
			if e%2 == 0 {
				mixed[e] = full[e]
			}
		}
		for i, streams := range [][]int{nil, full, mixed} {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					cached := m.fabricBandwidth(from, to, streams)
					walked := m.fabricBandwidthWalk(from, to, streams)
					if cached != walked {
						t.Errorf("%s stream state %d: bandwidth(%d,%d) cached %v != walked %v",
							spec, i, from, to, cached, walked)
					}
				}
			}
		}
	}
}

// TestLinkStreamsPriceIdenticallyPerEdge pins the bridge between the two
// addressings of a tree fabric: counts declared per edge through
// FabricGraph().LevelEdges read back per edge, and the per-level pricing
// tables charge exactly the bottleneck a hand walk over the level links
// finds — every level below the endpoints' divergence contributes both
// endpoint links, each shared by its own declared streams.
func TestLinkStreamsPriceIdenticallyPerEdge(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		plat, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := plat.Machine()
		if m.NumFabricLevels() == 0 {
			continue // shaped fabric: no per-level addressing exists
		}
		counts := make([][]int, m.NumFabricLevels())
		for l := range counts {
			counts[l] = make([]int, m.FabricLevelSize(l))
			for i := range counts[l] {
				counts[l][i] = 1 + (l+i)%4
			}
		}
		m.SetEdgeStreams(levelStreams(m, counts...))
		for l := range counts {
			for i, e := range m.FabricGraph().LevelEdges(l) {
				if got := m.EdgeStreams(e); got != counts[l][i] {
					t.Fatalf("%s: EdgeStreams(level %d link %d) = %d, want %d", spec, l, i, got, counts[l][i])
				}
			}
		}
		levels := plat.FabricLevels()
		n := len(m.Topology().ClusterNodes())
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				want := math.Inf(1)
				for l := 0; l < len(levels) && m.FabricGroupOf(l, from) != m.FabricGroupOf(l, to); l++ {
					for _, g := range []int{m.FabricGroupOf(l, from), m.FabricGroupOf(l, to)} {
						want = math.Min(want, levels[l].BandwidthBytesPerSec/float64(counts[l][g]))
					}
				}
				if got := m.fabricBandwidth(from, to, m.edgeStreams); got != want {
					t.Errorf("%s: bandwidth(%d,%d) = %v, want the level-link bottleneck %v", spec, from, to, got, want)
				}
			}
		}
	}
}

// The benchmark pair quantifies what the distance table saves per transfer
// priced: run with `go test -bench FabricLatency ./internal/numasim`.
func benchmarkFabricLatency(b *testing.B, f func(m *Machine, from, to int) float64) {
	plat, err := NewPlatform("pod:2 rack:4 node:8 pack:1 core:2", Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := plat.Machine()
	n := len(m.Topology().ClusterNodes())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % n
		to := (i*7 + 1) % n
		if from == to {
			to = (to + 1) % n
		}
		sink += f(m, from, to)
	}
	_ = sink
}

func BenchmarkFabricLatencyCached(b *testing.B) {
	benchmarkFabricLatency(b, func(m *Machine, from, to int) float64 {
		return m.fabricLatencyCycles(from, to)
	})
}

func BenchmarkFabricLatencyWalk(b *testing.B) {
	benchmarkFabricLatency(b, func(m *Machine, from, to int) float64 {
		return m.fabricLatencyCyclesWalk(from, to)
	})
}
