package numasim

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// The machine prices every cross-node hop with one walk over the fabric
// graph (fabricWalk). The oracle below is the per-level model that walk
// replaced: it never touches the graph's path primitive — on a tree it
// re-derives each node's group at every fabric level from the topology
// objects and reads the link attributes off them; on a shaped fabric it
// walks the graph's uncached Route.

// fabricWalkSpecs spans flat, racked, pod-depth, uneven-rack and
// heterogeneous-member tree fabrics plus shaped torus/dragonfly fabrics.
var fabricWalkSpecs = []string{
	"cluster:6 pack:1 core:2",
	"rack:2 node:3 pack:1 core:2",
	"rack:3 node:2,3,1 pack:1 core:2",
	"pod:2 rack:2 node:2 pack:1 core:2",
	"pod:2 rack:2,1 node:2 pack:1 core:4",
	"pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}",
	"torus:2x3 pack:1 core:2",
	"torus:2x2x2 pack:1 core:1",
	"dragonfly:2,2,2 pack:1 core:2",
}

// oracleLeg prices one minimally-routed leg the pre-graph way and folds it
// into the running latency and bottleneck. On a tree, every fabric level
// where the endpoints' groups differ contributes both endpoint links.
func oracleLeg(m *Machine, fromC, toC int, streams []int, lat, bw *float64) {
	price := func(e int, linkLat, linkBW float64) {
		*lat += linkLat
		if m.edgeFaultFactor != nil {
			if m.edgeFaultFactor[e] == 0 {
				*lat = math.Inf(1)
			}
			linkBW *= m.edgeFaultFactor[e]
		}
		if streams != nil {
			linkBW = shareLink(linkBW, streams[e])
		}
		*bw = math.Min(*bw, linkBW)
	}
	g := m.fabricGraph
	levels := m.topo.FabricLevels()
	if levels == nil {
		for _, e := range g.Route(fromC, toC) {
			price(e, g.Edges()[e].LatencyCycles, g.Edges()[e].BandwidthBytesPerSec)
		}
		return
	}
	nodes := m.topo.ClusterNodes()
	for l, links := range levels {
		kind := links[0].Kind
		gf, gt := nodes[fromC].Ancestor(kind).LevelIndex, nodes[toC].Ancestor(kind).LevelIndex
		if gf == gt {
			break
		}
		for _, grp := range [2]int{gf, gt} {
			price(g.LevelEdges(l)[grp], links[grp].Attr.LatencyCycles, links[grp].Attr.BandwidthBytesPerSec)
		}
	}
}

// fabricWalkOracle is the reference for fabricWalk: the one minimally routed
// leg between the nodes. A severed edge anywhere on the route makes it
// unreachable (+Inf, 0).
//
// The oracle's summation order — both endpoint links of a level together,
// levels innermost first — differs from the machine's path order (up the
// from side, down the to side). Every link latency in the model is
// integer-valued, so both orders are exact; should a non-integer latency
// ever be introduced, the order of this oracle is the specification.
func fabricWalkOracle(m *Machine, fromC, toC int, streams []int) (lat, bw float64) {
	bw = math.Inf(1)
	oracleLeg(m, fromC, toC, streams, &lat, &bw)
	if math.IsInf(lat, 1) {
		return lat, 0
	}
	return lat, bw
}

func walkPlatform(t testing.TB, spec string, def topology.Defaults) *Machine {
	t.Helper()
	plat, err := NewPlatformAttrs(spec, def, Config{})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return plat.Machine()
}

// TestFabricWalkMatchesOracle is the differential test of the single pricing
// walk: on every fabric, for every node pair, under undeclared, full and
// mixed stream counts, on a healthy fabric, with degraded edges and with a
// severed edge, fabricWalk equals the oracle bit for bit — and a hop the
// oracle finds severed prices a transfer to +Inf.
func TestFabricWalkMatchesOracle(t *testing.T) {
	for _, spec := range fabricWalkSpecs {
		for _, fault := range []string{"healthy", "degraded", "severed"} {
			m := walkPlatform(t, spec, topology.DefaultAttrs())
			ne := m.fabricGraph.NumEdges()
			var events []topology.FaultEvent
			if fault != "healthy" {
				events = append(events,
					topology.FaultEvent{Kind: topology.FaultDegradeEdge, Edge: 0, Factor: 0.5},
					topology.FaultEvent{Kind: topology.FaultDegradeEdge, Edge: ne - 1, Factor: 0.25})
			}
			if fault == "severed" {
				events = append(events, topology.FaultEvent{Kind: topology.FaultSeverEdge, Edge: ne / 2})
			}
			if err := m.ApplyFaultEvents(events); err != nil {
				t.Fatal(err)
			}
			full := make([]int, ne)
			mixed := make([]int, ne)
			for e := range full {
				full[e] = 1 + e%3
				if e%2 == 0 {
					mixed[e] = full[e]
				}
			}
			n := m.fabricGraph.NumNodes()
			severedPairs := 0
			for i, streams := range [][]int{nil, full, mixed} {
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						if from == to {
							continue
						}
						lat, bw := m.fabricWalk(from, to, streams)
						wantLat, wantBW := fabricWalkOracle(m, from, to, streams)
						if lat != wantLat || bw != wantBW {
							t.Fatalf("%s %s streams %d: fabricWalk(%d,%d) = (%v, %v), oracle (%v, %v)",
								spec, fault, i, from, to, lat, bw, wantLat, wantBW)
						}
						if math.IsInf(wantLat, 1) {
							severedPairs++
							// The consumer pulls from the producer's node, so a
							// transfer to→from walks the hop from→to.
							if c := m.TransferCost(firstPUOfNode(m, to), firstPUOfNode(m, from), 4096); !math.IsInf(c, 1) {
								t.Fatalf("%s: transfer over the severed hop (%d,%d) = %v, want +Inf", spec, from, to, c)
							}
						}
					}
				}
			}
			if (severedPairs > 0) != (fault == "severed") {
				t.Errorf("%s %s: %d unreachable pairs", spec, fault, severedPairs)
			}
		}
	}
}

// TestFabricLatencyCacheCustomAttrs pins the walk against a spec whose link
// latencies differ per level, so a wrong edge on the path cannot cancel out.
func TestFabricLatencyCacheCustomAttrs(t *testing.T) {
	def := topology.DefaultAttrs()
	def.NetLatencyCycles = 101
	def.UplinkLatencyCycles = 1009
	def.PodUplinkLatencyCycles = 10007
	m := walkPlatform(t, "pod:2 rack:2 node:2 pack:1 core:2", def)
	n := m.fabricGraph.NumNodes()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			got, _ := m.fabricWalk(from, to, nil)
			if want, _ := fabricWalkOracle(m, from, to, nil); got != want {
				t.Errorf("latency(%d,%d) walked %v != oracle %v", from, to, got, want)
			}
		}
	}
	// Spot-check the absolute prices: same rack = 2 NICs; across racks adds
	// 2 uplinks; across pods adds 2 pod uplinks on top.
	for _, c := range []struct {
		to   int
		want float64
	}{{1, 2 * 101}, {2, 2*101 + 2*1009}, {4, 2*101 + 2*1009 + 2*10007}} {
		if got, _ := m.fabricWalk(0, c.to, nil); got != c.want {
			t.Errorf("latency(0,%d) = %v, want %v", c.to, got, c.want)
		}
	}
}

// TestLinkStreamsPriceIdenticallyPerEdge pins the bridge between the two
// addressings of a tree fabric: counts declared per (level, group) link
// through FabricGraph().LevelEdges read back per edge, and the walk charges
// exactly the bottleneck a hand walk over the level links finds — every
// level below the endpoints' divergence contributes both endpoint links,
// each shared by its own declared streams.
func TestLinkStreamsPriceIdenticallyPerEdge(t *testing.T) {
	for _, spec := range fabricWalkSpecs {
		m := walkPlatform(t, spec, topology.DefaultAttrs())
		levels := m.topo.FabricLevels()
		if levels == nil {
			continue // shaped fabric: no per-level addressing exists
		}
		counts := make([][]int, len(levels))
		for l := range counts {
			counts[l] = make([]int, len(levels[l]))
			for i := range counts[l] {
				counts[l][i] = 1 + (l+i)%4
			}
		}
		m.Declare(Contention{Edges: levelStreams(m, counts...)})
		declared := m.Contention().Edges
		for l := range counts {
			for i, e := range m.FabricGraph().LevelEdges(l) {
				if got := declared[e]; got != counts[l][i] {
					t.Fatalf("%s: Edges[level %d link %d] = %d, want %d", spec, l, i, got, counts[l][i])
				}
			}
		}
		nodes := m.topo.ClusterNodes()
		for from := range nodes {
			for to := range nodes {
				if from == to {
					continue
				}
				want := math.Inf(1)
				for l, links := range levels {
					gf := nodes[from].Ancestor(links[0].Kind).LevelIndex
					gt := nodes[to].Ancestor(links[0].Kind).LevelIndex
					if gf == gt {
						break
					}
					for _, g := range []int{gf, gt} {
						want = math.Min(want, links[g].Attr.BandwidthBytesPerSec/float64(counts[l][g]))
					}
				}
				if _, got := m.fabricWalk(from, to, declared); got != want {
					t.Errorf("%s: bandwidth(%d,%d) = %v, want the level-link bottleneck %v", spec, from, to, got, want)
				}
			}
		}
	}
}

// TestCrossNodeTransferCostAllocatesNothing: the pricing hot path walks the
// routed path in a stack buffer — compiled trees climb, shaped fabrics copy
// the memoized route — on every kind of fabric, including a flat cluster
// above the graph's path-cache limit.
func TestCrossNodeTransferCostAllocatesNothing(t *testing.T) {
	for _, spec := range []string{
		"rack:2 node:3 pack:1 core:2",
		"pod:2 rack:2 node:2 pack:1 core:2",
		"torus:4x4 pack:1 core:1",
		"dragonfly:4,2,2 pack:1 core:2",
		"cluster:1100 pack:1 core:1",
	} {
		m := walkPlatform(t, spec, topology.DefaultAttrs())
		n := m.fabricGraph.NumNodes()
		m.Declare(Contention{Edges: make([]int, m.fabricGraph.NumEdges())})
		from, to := firstPUOfNode(m, 0), firstPUOfNode(m, n-1)
		m.TransferCost(from, to, 4096) // fill the graph's route memo
		if allocs := testing.AllocsPerRun(100, func() { m.TransferCost(from, to, 4096) }); allocs != 0 {
			t.Errorf("%s: cross-node TransferCost allocates %.0f times per call", spec, allocs)
		}
	}
}

// BenchmarkFabricWalk measures the single pricing walk per fabric kind: run
// with `go test -bench FabricWalk ./internal/numasim`.
func BenchmarkFabricWalk(b *testing.B) {
	for _, spec := range []string{
		"pod:2 rack:4 node:8 pack:1 core:2",
		"cluster:2000 pack:1 core:1",
		"torus:8x8 pack:1 core:1",
	} {
		b.Run(spec, func(b *testing.B) {
			m := walkPlatform(b, spec, topology.DefaultAttrs())
			n := m.fabricGraph.NumNodes()
			m.fabricWalk(0, n-1, nil)
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := i % n
				to := (i*7 + 1) % n
				if from == to {
					to = (to + 1) % n
				}
				lat, bw := m.fabricWalk(from, to, nil)
				sink += lat + bw
			}
			_ = sink
		})
	}
}
