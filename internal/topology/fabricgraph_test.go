package topology

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestParseFabricShapeErrors(t *testing.T) {
	bad := []string{
		"torus:1x4 pack:1 core:2",       // dimension < 2
		"torus:4xq pack:1 core:2",       // non-integer dimension
		"torus: pack:1 core:2",          // empty dims
		"torus:300x300 pack:1 core:2",   // node cap
		"dragonfly:2,4 pack:1 core:2",   // two counts
		"dragonfly:1,4,2 pack:1 core:2", // one group
		"dragonfly:2,0,2 pack:1 core:2", // zero routers
		"pack:1 torus:2x2 core:2",       // shape not leading
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) = nil error, want error", spec)
		}
	}
}

func TestTorusSpecParses(t *testing.T) {
	to, err := FromSpec("torus:4x4 pack:1 core:4")
	if err != nil {
		t.Fatal(err)
	}
	if got := to.NumClusterNodes(); got != 16 {
		t.Fatalf("NumClusterNodes() = %d, want 16", got)
	}
	if to.FabricShape() == nil || to.FabricShape().Kind != "torus" {
		t.Fatalf("FabricShape() = %v, want torus", to.FabricShape())
	}
	if lv := to.FabricLevels(); lv != nil {
		t.Errorf("FabricLevels() = %d levels on a torus, want nil (per-edge model)", len(lv))
	}
	if !strings.HasPrefix(to.Spec(), "torus:4x4 ") {
		t.Errorf("Spec() = %q, want torus:4x4 prefix", to.Spec())
	}
	// The canonical spec round-trips through the ordinary parser.
	rt, err := FromSpec(to.Spec())
	if err != nil {
		t.Fatalf("round-trip FromSpec(%q): %v", to.Spec(), err)
	}
	if rt.Spec() != to.Spec() {
		t.Errorf("round-trip spec %q != %q", rt.Spec(), to.Spec())
	}
}

func TestTorusCoords(t *testing.T) {
	dims := []int{2, 3, 4}
	for id := 0; id < 24; id++ {
		c := torusCoords(id, dims)
		if got := torusIndex(c, dims); got != id {
			t.Fatalf("torusIndex(torusCoords(%d)) = %d", id, got)
		}
	}
	// Row-major, last dimension fastest.
	if c := torusCoords(5, dims); !reflect.DeepEqual(c, []int{0, 1, 1}) {
		t.Errorf("torusCoords(5, 2x3x4) = %v, want [0 1 1]", c)
	}
}

// torusHops walks a route and returns the visited vertex sequence.
func routeVertices(g *FabricGraph, from int, path []int) []int {
	vs := []int{from}
	cur := from
	for _, e := range path {
		ed := g.edges[e]
		next := ed.A
		if next == cur {
			next = ed.B
		}
		vs = append(vs, next)
		cur = next
	}
	return vs
}

func TestTorusRouting(t *testing.T) {
	to, err := FromSpec("torus:4x4 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	g := to.FabricGraph()
	if g.NumEdges() != 32 { // 2 links per node on a 2-D torus
		t.Fatalf("NumEdges() = %d, want 32", g.NumEdges())
	}
	// Nearest neighbour: one hop.
	if p := g.Route(0, 1); len(p) != 1 {
		t.Errorf("route 0->1: %d hops, want 1", len(p))
	}
	// Wrap-around is shorter: 0 -> 3 goes backward in one hop.
	if vs := routeVertices(g, 0, g.Route(0, 3)); !reflect.DeepEqual(vs, []int{0, 3}) {
		t.Errorf("route 0->3 visits %v, want [0 3] (wrap)", vs)
	}
	// Tie (distance 2 on a ring of 4) resolves to the positive direction.
	if vs := routeVertices(g, 0, g.Route(0, 2)); !reflect.DeepEqual(vs, []int{0, 1, 2}) {
		t.Errorf("route 0->2 visits %v, want [0 1 2] (positive tie)", vs)
	}
	// Dimension order: first dimension is corrected first. Node 5 is (1,1).
	if vs := routeVertices(g, 0, g.Route(0, 5)); !reflect.DeepEqual(vs, []int{0, 4, 5}) {
		t.Errorf("route 0->5 visits %v, want [0 4 5]", vs)
	}
	// Routes are symmetric in length.
	for f := 0; f < 16; f++ {
		for to := 0; to < 16; to++ {
			if lf, lt := len(g.Route(f, to)), len(g.Route(to, f)); lf != lt {
				t.Fatalf("asymmetric route length %d->%d: %d vs %d", f, to, lf, lt)
			}
		}
	}
}

func TestDragonflyRouting(t *testing.T) {
	to, err := FromSpec("dragonfly:2,4,2 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	g := to.FabricGraph()
	if g.NumNodes() != 16 || g.NumVertices() != 24 {
		t.Fatalf("nodes=%d vertices=%d, want 16/24", g.NumNodes(), g.NumVertices())
	}
	// 16 node links + 2 groups x C(4,2) router links + 1 global link.
	if want := 16 + 2*6 + 1; g.NumEdges() != want {
		t.Fatalf("NumEdges() = %d, want %d", g.NumEdges(), want)
	}
	// Same router: node, router, node.
	if vs := routeVertices(g, 0, g.Route(0, 1)); !reflect.DeepEqual(vs, []int{0, 16, 1}) {
		t.Errorf("route 0->1 visits %v, want [0 16 1]", vs)
	}
	// Same group, different router: node, router, router, node.
	if p := g.Route(0, 2); len(p) != 3 {
		t.Errorf("route 0->2: %d hops, want 3", len(p))
	}
	// Cross-group minimal route is at most 5 hops (node, router, gateway,
	// global, router, node) and at least 3.
	for f := 0; f < 8; f++ {
		for to := 8; to < 16; to++ {
			if l := len(g.Route(f, to)); l < 3 || l > 5 {
				t.Fatalf("cross-group route %d->%d: %d hops, want 3..5", f, to, l)
			}
		}
	}
}

func TestTreeGraphCompilation(t *testing.T) {
	cases := []struct {
		spec string
		// hops[d] = expected edge-path length between node pairs whose
		// lowest common fabric level is d levels up (1 = same parent).
		samePair  [2]int
		sameHops  int
		crossPair [2]int
		crossHops int
	}{
		{"cluster:4 pack:1 core:2", [2]int{0, 1}, 2, [2]int{0, 3}, 2},
		{"rack:2 node:2 pack:1 core:2", [2]int{0, 1}, 2, [2]int{0, 2}, 4},
		{"pod:2 rack:2 node:2 pack:1 core:2", [2]int{0, 1}, 2, [2]int{0, 4}, 6},
		{"rack:2 node:2,3 pack:1 core:2", [2]int{0, 1}, 2, [2]int{0, 4}, 4},
	}
	for _, c := range cases {
		to, err := FromSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		g := to.FabricGraph()
		if g == nil {
			t.Fatalf("%s: FabricGraph() = nil", c.spec)
		}
		if got := len(g.Route(c.samePair[0], c.samePair[1])); got != c.sameHops {
			t.Errorf("%s: route %v = %d hops, want %d", c.spec, c.samePair, got, c.sameHops)
		}
		if got := len(g.Route(c.crossPair[0], c.crossPair[1])); got != c.crossHops {
			t.Errorf("%s: route %v = %d hops, want %d", c.spec, c.crossPair, got, c.crossHops)
		}
		// The levelEdge bridge covers every fabric level with the same group
		// counts as the per-level model.
		levels := to.FabricLevels()
		if len(g.levelEdge) != len(levels) {
			t.Fatalf("%s: %d edge levels, want %d", c.spec, len(g.levelEdge), len(levels))
		}
		for li, lv := range levels {
			if got := len(g.LevelEdges(li)); got != len(lv) {
				t.Errorf("%s: LevelEdges(%d) has %d edges, want %d", c.spec, li, got, len(lv))
			}
			for gi, o := range lv {
				e := g.edges[g.LevelEdges(li)[gi]]
				if e.LatencyCycles != o.Attr.LatencyCycles || e.BandwidthBytesPerSec != o.Attr.BandwidthBytesPerSec {
					t.Errorf("%s: level %d group %d edge attrs %v != link attrs (%v, %v)",
						c.spec, li, gi, e, o.Attr.LatencyCycles, o.Attr.BandwidthBytesPerSec)
				}
			}
		}
	}
}

// treePathOracle is the independent reference for a compiled tree's path: it
// climbs the topology objects themselves, addressing each level's link
// through LevelEdges.
func treePathOracle(to *Topology, from, dst int) []int {
	g := to.FabricGraph()
	var up, down []int
	a, b := to.ClusterNodes()[from], to.ClusterNodes()[dst]
	for l := 0; a != b; l++ {
		up = append(up, g.LevelEdges(l)[a.LevelIndex])
		down = append(down, g.LevelEdges(l)[b.LevelIndex])
		a, b = a.Parent, b.Parent
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// TestPathCacheMatchesRoute pins the one path primitive: AppendPath equals
// the uncached Route on shaped fabrics and the object-climbing oracle on
// compiled trees, appends after whatever the buffer already holds, and
// allocates nothing while the buffer has room.
func TestPathCacheMatchesRoute(t *testing.T) {
	for _, spec := range []string{
		"torus:3x3 pack:1 core:1",
		"torus:2x2x4 pack:1 core:1",
		"dragonfly:2,4,2 pack:1 core:1",
		"cluster:5 pack:1 core:2",
		"pod:2 rack:2 node:2 pack:1 core:2",
		"rack:2 node:2,3 pack:1 core:2",
	} {
		to, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g := to.FabricGraph()
		n := g.NumNodes()
		buf := make([]int, 0, 64)
		for f := 0; f < n; f++ {
			for to2 := 0; to2 < n; to2++ {
				want := g.Route(f, to2)
				if g.Shape() == nil && f != to2 {
					want = treePathOracle(to, f, to2)
				}
				got := g.AppendPath(append(buf[:0], -7), f, to2)
				if got[0] != -7 || !slices.Equal(got[1:], want) {
					t.Fatalf("%s: AppendPath(%d,%d) = %v, want -7 then %v", spec, f, to2, got, want)
				}
				if g.PathLatency(f, to2) != g.pathLatencyWalk(f, to2) {
					t.Fatalf("%s: PathLatency(%d,%d) != walk", spec, f, to2)
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = g.AppendPath(buf[:0], 0, n-1) }); allocs != 0 {
			t.Errorf("%s: AppendPath allocates %.0f times per call", spec, allocs)
		}
		if g.Shape() == nil {
			if g.paths != nil {
				t.Errorf("%s: a compiled tree built the all-pairs path cache", spec)
			}
			// The up-chain of a node is its own-side link at every level.
			var want []int
			for l := range len(to.FabricLevels()) {
				o := to.ClusterNodes()[n-1]
				for k := 0; k < l; k++ {
					o = o.Parent
				}
				want = append(want, g.LevelEdges(l)[o.LevelIndex])
			}
			if got := g.AppendPath(nil, n-1, g.Root()); !slices.Equal(got, want) {
				t.Errorf("%s: up-chain of node %d = %v, want %v", spec, n-1, got, want)
			}
		} else if g.Root() != -1 {
			t.Errorf("%s: Root() = %d on a shaped fabric, want -1", spec, g.Root())
		}
		lm := g.LatencyMatrix()
		for f := 0; f < n; f++ {
			for to := 0; to < n; to++ {
				if lm[f][to] != g.PathLatency(f, to) {
					t.Fatalf("%s: LatencyMatrix[%d][%d] mismatch", spec, f, to)
				}
				if lm[f][to] != lm[to][f] {
					t.Fatalf("%s: latency not symmetric at (%d,%d)", spec, f, to)
				}
			}
		}
	}
}

func TestPlatformShapeRoundTrip(t *testing.T) {
	p, top := parseAndBuild(t, "torus:2x3 pack:1 core:2")
	if p.Fabric == nil || p.Nodes() != 6 {
		t.Fatalf("Fabric=%v Nodes=%d, want torus/6", p.Fabric, p.Nodes())
	}
	fused := top.Spec()
	if !strings.HasPrefix(fused, "torus:2x3 ") {
		t.Fatalf("Spec() = %q, want torus:2x3 prefix", fused)
	}
	if _, top2 := parseAndBuild(t, fused); top2.Spec() != fused {
		t.Errorf("spec not stable: %q then %q", fused, top2.Spec())
	}

	// Braced heterogeneous members cycle over the shape's nodes.
	p, top = parseAndBuild(t, "dragonfly:2,2,1{pack:1 core:4 | pack:1 core:2}")
	want := []string{"1/1/4/4", "1/1/2/2", "1/1/4/4", "1/1/2/2"}
	if got := nodeShapes(top); p.Nodes() != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes=%d shapes=%v, want 4 nodes of %v", p.Nodes(), got, want)
	}
	if _, top2 := parseAndBuild(t, top.Spec()); !reflect.DeepEqual(nodeShapes(top2), want) {
		t.Errorf("members did not round-trip through %q: %v", top.Spec(), nodeShapes(top2))
	}
	// An empty member tail is a 1-core node, as FromSpec has always built it.
	_, top = parseAndBuild(t, "torus:2x2")
	if got := nodeShapes(top); !reflect.DeepEqual(got, []string{"1/1/1", "1/1/1", "1/1/1", "1/1/1"}) {
		t.Errorf("torus:2x2 built nodes %v, want four 1-core nodes", got)
	}
	// A shape tier cannot follow or carry tree tiers.
	for _, bad := range []string{
		"rack:2 torus:2x2 pack:1 core:2",
		"torus:2x2{pack:1 core:2} core:4",
	} {
		if _, err := ParsePlatform(bad); err == nil {
			t.Errorf("ParsePlatform(%q) = nil error, want error", bad)
		}
	}
}

func TestRenderFabric(t *testing.T) {
	to, err := FromSpec("torus:4x4 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	out := to.RenderFabric()
	for _, want := range []string{"torus 4x4", "16 nodes", "dimension-order", "route 0 -> 15"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFabric() missing %q:\n%s", want, out)
		}
	}
	flat, err := FromSpec("cluster:4 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	if out := flat.RenderFabric(); out != "" {
		t.Errorf("RenderFabric() on a tree fabric = %q, want empty", out)
	}
}
