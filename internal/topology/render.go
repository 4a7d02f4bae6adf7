package topology

import (
	"fmt"
	"strings"
)

// String returns a one-line summary of the topology, e.g.
// "Machine (24 Package, 24 NUMANode, 192 Core, 192 PU)".
func (t *Topology) String() string {
	var parts []string
	for d := 1; d < t.Depth(); d++ {
		lv := t.levels[d]
		parts = append(parts, fmt.Sprintf("%d %v", len(lv), lv[0].Kind))
	}
	return "Machine (" + strings.Join(parts, ", ") + ")"
}

// Render returns a multi-line ASCII rendering of the topology tree in the
// style of hwloc's lstopo tool. Sibling subtrees that are structurally
// identical are collapsed ("x24") to keep large machines readable.
func (t *Topology) Render() string {
	var b strings.Builder
	renderObj(&b, t.root, 0)
	return b.String()
}

func renderObj(b *strings.Builder, o *Object, indent int) {
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString(describe(o))
	b.WriteByte('\n')
	// Collapse each run of structurally identical sibling subtrees; on an
	// uneven machine the differing siblings render separately.
	for i := 0; i < len(o.Children); {
		j := i + 1
		for j < len(o.Children) && shape(o.Children[j]) == shape(o.Children[i]) {
			j++
		}
		if j-i > 1 {
			b.WriteString(strings.Repeat("  ", indent+1))
			fmt.Fprintf(b, "(x%d identical subtrees, first shown)\n", j-i)
		}
		renderObj(b, o.Children[i], indent+1)
		i = j
	}
}

// RenderFabric returns a multi-line description of the routed fabric graph
// of a shaped (torus/dragonfly) topology: dimensions, routing discipline,
// per-edge attribute classes, and a worked example route. Empty on tree
// fabrics and single machines, whose structure Render already shows.
func (t *Topology) RenderFabric() string {
	s := t.fabric
	if s == nil {
		return ""
	}
	g := t.FabricGraph()
	var b strings.Builder
	fmt.Fprintf(&b, "Fabric: %s (%d nodes, %d vertices, %d edges)\n",
		s, g.NumNodes(), g.NumVertices(), g.NumEdges())
	if s.Kind == "torus" {
		b.WriteString("  routing: dimension-order (shorter wrap direction, positive on ties)\n")
	} else {
		b.WriteString("  routing: minimal (node, router, gateway, global link, router, node)\n")
	}
	// Group the edges into attribute classes, first-seen order (node links
	// first by construction, then router and global links).
	type edgeClass struct {
		lat, bw float64
		count   int
	}
	var classes []edgeClass
	for _, e := range g.Edges() {
		found := false
		for i := range classes {
			if classes[i].lat == e.LatencyCycles && classes[i].bw == e.BandwidthBytesPerSec {
				classes[i].count++
				found = true
				break
			}
		}
		if !found {
			classes = append(classes, edgeClass{lat: e.LatencyCycles, bw: e.BandwidthBytesPerSec, count: 1})
		}
	}
	for _, c := range classes {
		fmt.Fprintf(&b, "  links x%d: %.1f GB/s, %.0f cycles\n", c.count, c.bw/1e9, c.lat)
	}
	from, to := 0, g.NumNodes()-1
	path := g.AppendPath(nil, from, to)
	fmt.Fprintf(&b, "  route %d -> %d:", from, to)
	for _, e := range path {
		ed := g.Edges()[e]
		fmt.Fprintf(&b, " [%d-%d]", ed.A, ed.B)
	}
	fmt.Fprintf(&b, " (%d hops, %.0f cycles)\n", len(path), g.PathLatency(from, to))
	return b.String()
}

// shape returns a structural signature of a subtree: kinds and arities,
// ignoring indices (attributes are uniform per kind by construction).
func shape(o *Object) string {
	if len(o.Children) == 0 {
		return o.Kind.String()
	}
	parts := make([]string, len(o.Children))
	for i, c := range o.Children {
		parts[i] = shape(c)
	}
	return o.Kind.String() + "[" + strings.Join(parts, ",") + "]"
}

// describe renders one object with its salient attributes.
func describe(o *Object) string {
	switch {
	case o.Kind == Machine:
		if o.Attr.ClockHz > 0 {
			return fmt.Sprintf("Machine (%.2f GHz)", o.Attr.ClockHz/1e9)
		}
		return "Machine"
	case o.Kind.IsCache():
		return fmt.Sprintf("%s#%d (%s, %.0f cycles)", o.Kind, o.LevelIndex,
			formatSize(o.Attr.CacheSize), o.Attr.LatencyCycles)
	case o.Kind == Pod:
		return fmt.Sprintf("Pod#%d (uplink %.1f GB/s, %.0f cycles)", o.LevelIndex,
			o.Attr.BandwidthBytesPerSec/1e9, o.Attr.LatencyCycles)
	case o.Kind == Rack:
		return fmt.Sprintf("Rack#%d (uplink %.1f GB/s, %.0f cycles)", o.LevelIndex,
			o.Attr.BandwidthBytesPerSec/1e9, o.Attr.LatencyCycles)
	case o.Kind == Cluster:
		return fmt.Sprintf("Cluster#%d (link %.1f GB/s, %.0f cycles)", o.LevelIndex,
			o.Attr.BandwidthBytesPerSec/1e9, o.Attr.LatencyCycles)
	case o.Kind == NUMANode:
		return fmt.Sprintf("NUMANode#%d (%.1f GB/s, %.0f cycles)", o.LevelIndex,
			o.Attr.BandwidthBytesPerSec/1e9, o.Attr.LatencyCycles)
	case o.Kind == PU:
		return fmt.Sprintf("PU#%d (os=%d)", o.LevelIndex, o.OSIndex)
	default:
		return fmt.Sprintf("%s#%d", o.Kind, o.LevelIndex)
	}
}

// formatSize renders a byte count with binary units.
func formatSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
