package topology

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// nodeShapes renders every cluster node's subtree as its per-level object
// counts ("2 pack, 2 numa, 16 core, 16 pu" is "2/2/16/16"), in node order.
func nodeShapes(top *Topology) []string {
	nodes := top.ClusterNodes()
	if len(nodes) == 0 {
		nodes = []*Object{top.Root()}
	}
	shapes := make([]string, len(nodes))
	for i, n := range nodes {
		var counts []string
		for level := n.Children; len(level) > 0; {
			counts = append(counts, strconv.Itoa(len(level)))
			var next []*Object
			for _, o := range level {
				next = append(next, o.Children...)
			}
			level = next
		}
		shapes[i] = strings.Join(counts, "/")
	}
	return shapes
}

// parseAndBuild parses a spec both ways and checks the two agree: the
// parsed platform renders the built topology's Spec() and node count.
func parseAndBuild(t *testing.T, spec string) (*PlatformSpec, *Topology) {
	t.Helper()
	p, err := ParsePlatform(spec)
	if err != nil {
		t.Fatalf("ParsePlatform(%q): %v", spec, err)
	}
	top, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec(%q): %v", spec, err)
	}
	if fused, err := p.FusedSpec(); err != nil || fused != top.Spec() {
		t.Fatalf("%q: FusedSpec %q (%v), built Spec %q", spec, fused, err, top.Spec())
	}
	if p.Nodes() != top.NumClusterNodes() {
		t.Fatalf("%q: %d parsed nodes, %d built", spec, p.Nodes(), top.NumClusterNodes())
	}
	return p, top
}

func TestParsePlatformHomogeneous(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		nodes int
		fused string // prefix of the fused spec
		shape string // every node's subtree
	}{
		{"pack:2 core:8", 1, "pack:2", "2/2/16/16"},
		{"cluster:4 pack:2 core:8", 4, "cluster:4 pack:2", "2/2/16/16"},
		{"node:4 pack:2 core:8", 4, "cluster:4 pack:2", "2/2/16/16"},
		{"rack:2 node:2 pack:1 core:4", 4, "rack:2 cluster:2", "1/1/4/4"},
		{"pod:2 rack:2 node:2 pack:1 core:4", 8, "pod:2 rack:2 cluster:2", "1/1/4/4"},
		// An empty member tail is a 1-core node, as FromSpec has always
		// built it.
		{"cluster:4", 4, "cluster:4 numa:1 core:1 pu:1", "1/1/1"},
	} {
		p, top := parseAndBuild(t, tc.spec)
		if p.Nodes() != tc.nodes {
			t.Errorf("%q: %d nodes, want %d", tc.spec, p.Nodes(), tc.nodes)
		}
		if !strings.HasPrefix(top.Spec(), tc.fused) {
			t.Errorf("%q: spec %q does not start with %q", tc.spec, top.Spec(), tc.fused)
		}
		for i, shape := range nodeShapes(top) {
			if shape != tc.shape {
				t.Errorf("%q: node %d has shape %s, want %s", tc.spec, i, shape, tc.shape)
			}
		}
	}
}

func TestParsePlatformHeterogeneous(t *testing.T) {
	p, top := parseAndBuild(t, "rack:2 node:{pack:2 core:8 | pack:1 core:4}")
	if p.Nodes() != 2 {
		t.Fatalf("nodes=%d, want 2", p.Nodes())
	}
	if got, want := nodeShapes(top), []string{"2/2/16/16", "1/1/4/4"}; !slices.Equal(got, want) {
		t.Errorf("node shapes %v, want %v", got, want)
	}
	if top.NumCores() != 20 {
		t.Errorf("fused topology has %d cores, want 20 (2x8 + 1x4): spec %q", top.NumCores(), top.Spec())
	}
	if top.NumRacks() != 2 || len(top.ClusterNodes()) != 2 {
		t.Errorf("fused topology has %d racks / %d nodes, want 2 / 2", top.NumRacks(), len(top.ClusterNodes()))
	}
}

func TestParsePlatformCyclingMembers(t *testing.T) {
	p, top := parseAndBuild(t, "pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}")
	if p.Nodes() != 8 {
		t.Fatalf("%d nodes, want 8", p.Nodes())
	}
	// The two members alternate over the nodes, so every rack holds one of
	// each.
	for i, shape := range nodeShapes(top) {
		if want := []string{"2/2/8/8", "1/1/4/4"}[i%2]; shape != want {
			t.Errorf("node %d has shape %s, want %s", i, shape, want)
		}
	}
	if top.NumPods() != 2 || top.NumRacks() != 4 || top.NumCores() != 48 {
		t.Errorf("pods=%d racks=%d cores=%d, want 2/4/48 (spec %q)",
			top.NumPods(), top.NumRacks(), top.NumCores(), top.Spec())
	}
}

func TestParsePlatformUnevenRacks(t *testing.T) {
	p, err := ParsePlatform("rack:2 node:2,3 pack:1 core:4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 5 {
		t.Fatalf("%d nodes, want 5", p.Nodes())
	}
	fused, err := p.FusedSpec()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := FromSpec(fused)
	if err != nil {
		t.Fatalf("fused spec %q: %v", fused, err)
	}
	if got := len(topo.ClusterNodes()); got != 5 {
		t.Errorf("fused topology has %d cluster nodes, want 5", got)
	}
	racks := topo.Racks()
	if len(racks) != 2 || len(racks[0].Children) != 2 || len(racks[1].Children) != 3 {
		t.Errorf("uneven racks not preserved: %v", topo.Spec())
	}
}

func TestParsePlatformErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"pod:2 node:4 core:8", // pod without rack tier
		"rack:2 core:8",       // rack without node tier
		"rack:2 node:{pack:1 core:2} pack:1 core:2",                    // tokens after braces
		"rack:2 node:{pack:1 core:2 | }",                               // empty member
		"rack:2 node:{pack:1 core:2 | pack:1",                          // unbalanced brace
		"rack:2 node:{a:1 | b:2 | c:3}",                                // bogus members
		"rack:3 node:{pack:1 core:2 | pack:1 core:4}",                  // 2 members on 3 racks
		"rack:2 node:1{pack:1 core:2 | pack:1 core:4 | pack:1 core:8}", // 3 members, 2 nodes
		"node:{cluster:2 core:4}",                                      // member with its own fabric tier
		"rack:2{pack:1 core:2 | pack:1 core:4} node:2 pack:1 core:2",   // braces on the rack tier
		"pod:2{pack:1 core:2} rack:2 node:2 pack:1 core:2",             // braces on the pod tier
		// A comma list on the pod tier names counts for more than its one
		// parent, the root.
		"pod:2,2 rack:1 cluster:1 pack:2",
		"pod:1,2 rack:2 node:3 numa:3",
	} {
		if _, err := ParsePlatform(spec); err == nil {
			t.Errorf("ParsePlatform(%q) accepted", spec)
		}
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) accepted", spec)
		}
	}
}

func TestParsePlatformMixedKindSequenceRejected(t *testing.T) {
	// One member has an L3 level, the other does not: the fused topology
	// could not keep levels kind-homogeneous.
	if _, err := ParsePlatform("node:{pack:1 l3:1 core:4 | pack:1 core:4}"); err == nil {
		t.Error("members with different level-kind sequences accepted")
	}
}

func TestPodSpec(t *testing.T) {
	topo, err := FromSpec("pod:2 rack:2 node:2 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumPods() != 2 || topo.NumRacks() != 4 || len(topo.ClusterNodes()) != 8 {
		t.Fatalf("pods=%d racks=%d nodes=%d, want 2/4/8", topo.NumPods(), topo.NumRacks(), len(topo.ClusterNodes()))
	}
	levels := topo.FabricLevels()
	if len(levels) != 3 {
		t.Fatalf("%d fabric levels, want 3 (NIC, rack uplink, pod uplink)", len(levels))
	}
	if levels[0][0].Kind != Cluster || levels[1][0].Kind != Rack || levels[2][0].Kind != Pod {
		t.Errorf("fabric level kinds %v/%v/%v, want Cluster/Rack/Pod",
			levels[0][0].Kind, levels[1][0].Kind, levels[2][0].Kind)
	}
	// A pod tier requires a rack tier.
	if _, err := FromSpec("pod:2 node:2 pack:1 core:2"); err == nil {
		t.Error("pod tier without rack tier accepted")
	}
	// SamePod / PodOf agree with the tree.
	n0, n7 := topo.ClusterNodes()[0], topo.ClusterNodes()[7]
	if topo.SamePod(n0, n7) {
		t.Error("nodes 0 and 7 report the same pod on a 2-pod fabric")
	}
	if topo.PodOf(n0) == nil || topo.PodOf(n0).LevelIndex != 0 {
		t.Error("PodOf(node 0) is not Pod#0")
	}
}

// TestSpecObjectBound pins that a spec describing more than maxSpecObjects
// objects is a parse error, whichever token carries the runaway count, and
// that the bound leaves the datacenter-tier platforms alone.
func TestSpecObjectBound(t *testing.T) {
	for _, spec := range []string{
		"core:2000000000",
		"core:9000000000000000000",
		"cluster:2000000000 core:2",
		"cluster:100000 core:1000",
		"pack:4096 core:4096 pu:2",
		"rack:4000 node:4000 core:2",
		"cluster:100000{core:200 | core:300}",
		"node:3{core:20000000 | core:1}",
	} {
		if _, err := ParsePlatform(spec); err == nil || !strings.Contains(err.Error(), "objects") {
			t.Errorf("ParsePlatform(%q) = %v, want the object-bound error", spec, err)
		}
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) accepted", spec)
		}
	}
	for _, spec := range []string{
		"cluster:10000 pack:1 core:8",   // the S1 tier's largest platform
		"cluster:1000000 pack:1 core:8", // a hundred of them
	} {
		if _, err := ParsePlatform(spec); err != nil {
			t.Errorf("ParsePlatform(%q): %v", spec, err)
		}
	}
}

// TestParsePlatformAllocsIndependentOfNodeCount pins that parsing builds
// nothing per node: a homogeneous platform costs the same allocations at 10
// nodes and at 1000.
func TestParsePlatformAllocsIndependentOfNodeCount(t *testing.T) {
	allocs := func(spec string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := ParsePlatform(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("cluster:10 pack:1 core:8"), allocs("cluster:1000 pack:1 core:8")
	if small != large {
		t.Errorf("ParsePlatform allocates %v times at 10 nodes but %v at 1000", small, large)
	}
}
