package topology

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// The routed fabric model generalizes the balanced tree of fabric levels
// (NIC links, rack uplinks, pod uplinks) into an explicit graph: vertices
// are cluster nodes plus internal switches, edges carry their own latency
// and bandwidth, and a deterministic routing function turns any node pair
// into an ordered edge path. Tree fabrics compile into the same
// representation (each link object becomes one edge, the path is the
// up-down walk through the lowest common ancestor), so a single
// distance/bottleneck model prices flat, racked, pod-depth, uneven-tree,
// torus and dragonfly fabrics alike.

// FabricShape describes a non-tree fabric tier: a k-ary torus or a
// dragonfly. The zero value is not meaningful; shapes come from the spec
// grammar ("torus:4x4x2", "dragonfly:2,4,2").
type FabricShape struct {
	// Kind is "torus" or "dragonfly".
	Kind string
	// Dims holds the torus dimensions (each >= 2); nil for a dragonfly.
	Dims []int
	// Groups, Routers and NodesPer describe a dragonfly: Groups groups of
	// Routers routers with NodesPer nodes each, routers all-to-all inside a
	// group and one global link per group pair.
	Groups, Routers, NodesPer int
}

// Nodes returns the number of cluster nodes the shape describes.
func (s *FabricShape) Nodes() int {
	if s.Kind == "torus" {
		n := 1
		for _, d := range s.Dims {
			n *= d
		}
		return n
	}
	return s.Groups * s.Routers * s.NodesPer
}

// Token renders the shape back into its spec token ("torus:4x4",
// "dragonfly:2,4,2").
func (s *FabricShape) Token() string {
	if s.Kind == "torus" {
		ds := make([]string, len(s.Dims))
		for i, d := range s.Dims {
			ds[i] = strconv.Itoa(d)
		}
		return "torus:" + strings.Join(ds, "x")
	}
	return fmt.Sprintf("dragonfly:%d,%d,%d", s.Groups, s.Routers, s.NodesPer)
}

// String describes the shape for rendering ("torus 4x4", "dragonfly
// groups=2 routers=4 nodes=2").
func (s *FabricShape) String() string {
	if s.Kind == "torus" {
		ds := make([]string, len(s.Dims))
		for i, d := range s.Dims {
			ds[i] = strconv.Itoa(d)
		}
		return "torus " + strings.Join(ds, "x")
	}
	return fmt.Sprintf("dragonfly groups=%d routers=%d nodes=%d", s.Groups, s.Routers, s.NodesPer)
}

// maxFabricNodes bounds the node count of a graph-shaped fabric: routing is
// computed per pair, so runaway products are rejected at parse time.
const maxFabricNodes = 1 << 16

// maxSpecObjects bounds the number of objects one spec may describe, so a
// runaway count is a parse error instead of an allocation. The largest
// platform of the S1 placement-latency tier (10 000 nodes of 8 cores,
// 190 001 objects) fits 176 times over.
const maxSpecObjects = 1 << 25

// pathCacheLimit bounds the node count up to which a FabricGraph memoizes
// all-pairs routes; larger graphs route on the fly (O(path) per query, no
// quadratic storage).
const pathCacheLimit = 1024

// parseFabricShape parses the value of a "torus:" or "dragonfly:" token.
func parseFabricShape(name, val string) (*FabricShape, error) {
	switch name {
	case "torus":
		var dims []int
		for _, ds := range strings.Split(val, "x") {
			d, err := strconv.Atoi(ds)
			if err != nil || d < 2 {
				return nil, fmt.Errorf("topology: invalid torus dimension %q in %q (each dimension must be an integer >= 2)", ds, name+":"+val)
			}
			dims = append(dims, d)
		}
		s := &FabricShape{Kind: "torus", Dims: dims}
		if s.Nodes() > maxFabricNodes {
			return nil, fmt.Errorf("topology: torus %q exceeds %d nodes", val, maxFabricNodes)
		}
		return s, nil
	case "dragonfly":
		parts := strings.Split(val, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("topology: dragonfly wants %q, got %q", "dragonfly:groups,routers,nodes", name+":"+val)
		}
		var v [3]int
		for i, ps := range parts {
			n, err := strconv.Atoi(ps)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("topology: invalid dragonfly count %q in %q", ps, name+":"+val)
			}
			v[i] = n
		}
		if v[0] < 2 {
			return nil, fmt.Errorf("topology: a dragonfly needs at least 2 groups, got %d", v[0])
		}
		s := &FabricShape{Kind: "dragonfly", Groups: v[0], Routers: v[1], NodesPer: v[2]}
		if s.Nodes() > maxFabricNodes {
			return nil, fmt.Errorf("topology: dragonfly %q exceeds %d nodes", val, maxFabricNodes)
		}
		return s, nil
	}
	return nil, fmt.Errorf("topology: unknown fabric shape %q", name)
}

// FabricEdge is one link of the routed fabric graph. A and B are vertex ids
// (cluster nodes first, internal switch vertices after).
type FabricEdge struct {
	A, B                 int
	LatencyCycles        float64
	BandwidthBytesPerSec float64
}

// FabricGraph is the routed fabric model: cluster-node vertices 0..n-1,
// optional internal switch vertices above, per-edge attributes, and a
// deterministic routing function. Immutable once built; all query methods
// are safe for concurrent use.
type FabricGraph struct {
	shape    *FabricShape // nil when compiled from a tree fabric
	nodes    int          // cluster-node vertices
	vertices int
	edges    []FabricEdge
	edgeOf   map[[2]int]int // normalized (min,max) vertex pair -> edge id

	// Tree compilation: per-vertex up edge/parent towards the root switch
	// (nil for torus/dragonfly shapes, which route analytically).
	treeUp     []int
	treeParent []int
	treeDepth  []int

	// levelEdge maps the tree fabric's (level, group) link addressing onto
	// edge ids, innermost level first — the bridge from per-level link
	// addressing to the per-edge stream and fault storage (LevelEdges).
	levelEdge [][]int

	pathOnce sync.Once
	paths    [][][]int32 // all-pairs edge paths of a shaped fabric, nil above pathCacheLimit
	latOnce  sync.Once
	lat      [][]float64 // all-pairs path latency, nil above pathCacheLimit
}

// Shape returns the non-tree shape the graph was built from, or nil for a
// compiled tree fabric.
func (g *FabricGraph) Shape() *FabricShape { return g.shape }

// NumNodes returns the number of cluster-node vertices.
func (g *FabricGraph) NumNodes() int { return g.nodes }

// NumVertices returns the total vertex count (nodes plus switches).
func (g *FabricGraph) NumVertices() int { return g.vertices }

// Edges returns the edge list. The slice must not be modified.
func (g *FabricGraph) Edges() []FabricEdge { return g.edges }

// NumEdges returns the number of edges.
func (g *FabricGraph) NumEdges() int { return len(g.edges) }

// LevelEdges returns the edge ids of one tree-fabric level (innermost
// first, matching Topology.FabricLevels), or nil on a non-tree shape.
func (g *FabricGraph) LevelEdges(level int) []int {
	if level < 0 || level >= len(g.levelEdge) {
		return nil
	}
	return g.levelEdge[level]
}

// Root returns the root switch vertex of a compiled tree fabric (the last
// vertex), or -1 on a non-tree shape. AppendPath(buf, node, Root()) is the
// node's up-chain: its NIC link, then its rack's and pod's uplinks.
func (g *FabricGraph) Root() int {
	if g.shape != nil {
		return -1
	}
	return g.vertices - 1
}

func (g *FabricGraph) addEdge(a, b int, lat, bw float64) {
	if a > b {
		a, b = b, a
	}
	if _, ok := g.edgeOf[[2]int{a, b}]; ok {
		return
	}
	g.edgeOf[[2]int{a, b}] = len(g.edges)
	g.edges = append(g.edges, FabricEdge{A: a, B: b, LatencyCycles: lat, BandwidthBytesPerSec: bw})
}

func (g *FabricGraph) edgeBetween(a, b int) int {
	if a > b {
		a, b = b, a
	}
	e, ok := g.edgeOf[[2]int{a, b}]
	if !ok {
		panic(fmt.Sprintf("topology: no fabric edge between vertices %d and %d", a, b))
	}
	return e
}

// Route computes the deterministic edge path between two cluster nodes,
// uncached: dimension-order routing (shorter wrap direction, ties positive)
// on a torus, minimal routing on a dragonfly, the up-down walk through the
// lowest common ancestor on a compiled tree. The path for from == to is
// empty. Route is the reference AppendPath is pinned against.
func (g *FabricGraph) Route(from, to int) []int {
	if from == to {
		return nil
	}
	if g.shape == nil {
		return g.appendTreePath(nil, from, to)
	}
	if g.shape.Kind == "torus" {
		return g.torusRoute(from, to)
	}
	return g.dragonflyRoute(from, to)
}

// torusRoute walks the dimensions in order, each along the shorter wrap
// direction (positive on a tie).
func (g *FabricGraph) torusRoute(from, to int) []int {
	dims := g.shape.Dims
	cf, ct := torusCoords(from, dims), torusCoords(to, dims)
	var path []int
	cur := from
	for k := range dims {
		d := dims[k]
		fwd := ((ct[k]-cf[k])%d + d) % d
		step := 1
		steps := fwd
		if fwd > d-fwd {
			step = d - 1 // -1 mod d
			steps = d - fwd
		}
		for s := 0; s < steps; s++ {
			cf[k] = (cf[k] + step) % d
			next := torusIndex(cf, dims)
			path = append(path, g.edgeBetween(cur, next))
			cur = next
		}
	}
	return path
}

// torusCoords converts a row-major node index into per-dimension
// coordinates (last dimension fastest).
func torusCoords(id int, dims []int) []int {
	c := make([]int, len(dims))
	for k := len(dims) - 1; k >= 0; k-- {
		c[k] = id % dims[k]
		id /= dims[k]
	}
	return c
}

// torusIndex is the inverse of torusCoords.
func torusIndex(c, dims []int) int {
	id := 0
	for k := range dims {
		id = id*dims[k] + c[k]
	}
	return id
}

// dragonflyRouter returns the router vertex id owning a node.
func (g *FabricGraph) dragonflyRouter(node int) int {
	return g.nodes + node/g.shape.NodesPer
}

// dragonflyGateway returns the router vertex of group a that owns the
// global link towards group b (consecutive allocation: the G-1 peer groups
// are dealt round-robin over the group's routers).
func (g *FabricGraph) dragonflyGateway(a, b int) int {
	rank := b
	if b > a {
		rank = b - 1
	}
	return g.nodes + a*g.shape.Routers + rank%g.shape.Routers
}

// dragonflyRoute is the minimal route: node, its router, at most one local
// hop to the gateway, the global link, at most one local hop to the target
// router, the target node.
func (g *FabricGraph) dragonflyRoute(from, to int) []int {
	s := g.shape
	rf, rt := g.dragonflyRouter(from), g.dragonflyRouter(to)
	gf, gt := from/(s.Routers*s.NodesPer), to/(s.Routers*s.NodesPer)
	path := []int{g.edgeBetween(from, rf)}
	cur := rf
	if gf != gt {
		gw1, gw2 := g.dragonflyGateway(gf, gt), g.dragonflyGateway(gt, gf)
		if cur != gw1 {
			path = append(path, g.edgeBetween(cur, gw1))
			cur = gw1
		}
		path = append(path, g.edgeBetween(cur, gw2))
		cur = gw2
	}
	if cur != rt {
		path = append(path, g.edgeBetween(cur, rt))
		cur = rt
	}
	return append(path, g.edgeBetween(cur, to))
}

// appendTreePath appends the up-down walk through the lowest common
// ancestor: the from-side up edges innermost-first, then the to-side edges
// in descending order.
func (g *FabricGraph) appendTreePath(buf []int, from, to int) []int {
	a, b := from, to
	for a != b {
		if g.treeDepth[a] >= g.treeDepth[b] {
			a = g.treeParent[a]
		} else {
			b = g.treeParent[b]
		}
	}
	for v := from; v != a; v = g.treeParent[v] {
		buf = append(buf, g.treeUp[v])
	}
	mid := len(buf)
	for v := to; v != a; v = g.treeParent[v] {
		buf = append(buf, g.treeUp[v])
	}
	slices.Reverse(buf[mid:])
	return buf
}

// AppendPath appends the routed edge path between two cluster nodes to buf
// and returns the extended slice — the one path primitive every pricing and
// contention walk goes through. It allocates nothing while buf has room:
// compiled trees climb treeUp/treeParent, shaped fabrics copy the route
// memoized all-pairs up to pathCacheLimit nodes, and larger shaped fabrics
// compute each query with Route. On a compiled tree either end may be any
// vertex, switches included (see Root).
func (g *FabricGraph) AppendPath(buf []int, from, to int) []int {
	if from == to {
		return buf
	}
	if g.shape == nil {
		return g.appendTreePath(buf, from, to)
	}
	if g.nodes > pathCacheLimit {
		return append(buf, g.Route(from, to)...)
	}
	g.pathOnce.Do(func() {
		g.paths = make([][][]int32, g.nodes)
		for f := 0; f < g.nodes; f++ {
			g.paths[f] = make([][]int32, g.nodes)
			for t := 0; t < g.nodes; t++ {
				r := g.Route(f, t)
				p := make([]int32, len(r))
				for i, e := range r {
					p[i] = int32(e)
				}
				g.paths[f][t] = p
			}
		}
	})
	for _, e := range g.paths[from][to] {
		buf = append(buf, int(e))
	}
	return buf
}

// PathLatency returns the summed latency, in cycles, of the routed path
// between two cluster nodes. Memoized all-pairs up to pathCacheLimit nodes
// and always equal to walking the path and summing edge latencies in path
// order.
func (g *FabricGraph) PathLatency(from, to int) float64 {
	if g.nodes > pathCacheLimit {
		return g.pathLatencyWalk(from, to)
	}
	g.latOnce.Do(func() {
		g.lat = make([][]float64, g.nodes)
		for f := 0; f < g.nodes; f++ {
			g.lat[f] = make([]float64, g.nodes)
			for t := 0; t < g.nodes; t++ {
				g.lat[f][t] = g.pathLatencyWalk(f, t)
			}
		}
	})
	return g.lat[from][to]
}

func (g *FabricGraph) pathLatencyWalk(from, to int) float64 {
	var stack [16]int
	sum := 0.0
	for _, e := range g.AppendPath(stack[:0], from, to) {
		sum += g.edges[e].LatencyCycles
	}
	return sum
}

// LatencyMatrix returns the full node-to-node routed latency matrix. The
// result must be treated as read-only below pathCacheLimit nodes (it shares
// the memoized backing array).
func (g *FabricGraph) LatencyMatrix() [][]float64 {
	if g.nodes <= pathCacheLimit {
		g.PathLatency(0, 0) // force the memo
		return g.lat
	}
	m := make([][]float64, g.nodes)
	for f := range m {
		m[f] = make([]float64, g.nodes)
		for t := range m[f] {
			m[f][t] = g.pathLatencyWalk(f, t)
		}
	}
	return m
}

// FabricShape returns the non-tree fabric shape of the topology, or nil on
// single machines and tree fabrics.
func (t *Topology) FabricShape() *FabricShape { return t.fabric }

// FabricGraph returns the routed fabric graph: the torus/dragonfly graph
// when the topology has a non-tree shape, the compiled tree fabric (one
// edge per NIC link, rack uplink and pod uplink) otherwise. Nil on a
// single-machine topology. The graph is built lazily once and shared.
func (t *Topology) FabricGraph() *FabricGraph {
	if len(t.clusters) == 0 {
		return nil
	}
	t.fabricOnce.Do(func() {
		if t.fabric != nil {
			t.fabricGraph = buildShapeGraph(t.fabric, t.fabricDef)
		} else {
			t.fabricGraph = buildTreeGraph(t)
		}
	})
	return t.fabricGraph
}

// buildShapeGraph constructs the torus or dragonfly graph. Torus links
// carry the NIC (Net) attributes — every hop is one node-to-node link.
// Dragonfly node-to-router links carry the Net attributes, intra-group
// router links the rack-uplink attributes, and the per-group-pair global
// links the pod-uplink attributes.
func buildShapeGraph(s *FabricShape, def Defaults) *FabricGraph {
	n := s.Nodes()
	g := &FabricGraph{shape: s, nodes: n, vertices: n, edgeOf: map[[2]int]int{}}
	switch s.Kind {
	case "torus":
		for id := 0; id < n; id++ {
			c := torusCoords(id, s.Dims)
			for k, d := range s.Dims {
				nc := append([]int(nil), c...)
				nc[k] = (c[k] + 1) % d
				g.addEdge(id, torusIndex(nc, s.Dims), def.NetLatencyCycles, def.NetBandwidth)
			}
		}
	case "dragonfly":
		g.vertices = n + s.Groups*s.Routers
		for id := 0; id < n; id++ {
			g.addEdge(id, g.dragonflyRouter(id), def.NetLatencyCycles, def.NetBandwidth)
		}
		for grp := 0; grp < s.Groups; grp++ {
			base := n + grp*s.Routers
			for a := 0; a < s.Routers; a++ {
				for b := a + 1; b < s.Routers; b++ {
					g.addEdge(base+a, base+b, def.UplinkLatencyCycles, def.UplinkBandwidth)
				}
			}
		}
		for a := 0; a < s.Groups; a++ {
			for b := a + 1; b < s.Groups; b++ {
				g.addEdge(g.dragonflyGateway(a, b), g.dragonflyGateway(b, a),
					def.PodUplinkLatencyCycles, def.PodUplinkBandwidth)
			}
		}
	}
	return g
}

// buildTreeGraph compiles a tree fabric into the graph representation: one
// vertex per cluster node and per switch object (rack, pod), plus the root
// switch; one edge per link object, carrying that object's attributes. The
// (level, group) link addressing of the per-level model maps onto edge ids
// via levelEdge.
func buildTreeGraph(t *Topology) *FabricGraph {
	levels := t.FabricLevels()
	n := len(t.clusters)
	g := &FabricGraph{nodes: n, edgeOf: map[[2]int]int{}}
	// Vertex numbering: cluster nodes 0..n-1, then each upper fabric level
	// in FabricLevels order, then the root switch last.
	vertexOf := map[*Object]int{}
	for i, c := range t.clusters {
		vertexOf[c] = i
	}
	next := n
	for _, lv := range levels[1:] {
		for _, o := range lv {
			vertexOf[o] = next
			next++
		}
	}
	root := next
	next++
	g.vertices = next
	g.treeUp = make([]int, g.vertices)
	g.treeParent = make([]int, g.vertices)
	g.treeDepth = make([]int, g.vertices)
	g.treeUp[root] = -1
	g.treeParent[root] = -1
	for li, lv := range levels {
		g.levelEdge = append(g.levelEdge, make([]int, len(lv)))
		for gi, o := range lv {
			v := vertexOf[o]
			parent := root
			if li+1 < len(levels) {
				parent = vertexOf[o.Parent]
			}
			g.treeParent[v] = parent
			g.treeDepth[v] = len(levels) - li
			g.levelEdge[li][gi] = len(g.edges)
			g.treeUp[v] = len(g.edges)
			g.addEdge(v, parent, o.Attr.LatencyCycles, o.Attr.BandwidthBytesPerSec)
		}
	}
	return g
}
