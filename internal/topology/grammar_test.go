package topology

import (
	"fmt"
	"strings"
	"testing"
)

// nodeCoreRuns renders the per-node core counts of a topology as runs of
// "nodes x cores" in left-to-right node order ("1000x8", "1x16 1x4"); a
// single machine is one node.
func nodeCoreRuns(t *Topology) string {
	nodes := t.ClusterNodes()
	if len(nodes) == 0 {
		nodes = []*Object{t.Root()}
	}
	cores := make(map[*Object]int)
	for _, c := range t.Cores() {
		if n := c.Ancestor(Cluster); n != nil {
			cores[n]++
		} else {
			cores[t.Root()]++
		}
	}
	var runs []string
	for i := 0; i < len(nodes); {
		j := i
		for j < len(nodes) && cores[nodes[j]] == cores[nodes[i]] {
			j++
		}
		runs = append(runs, fmt.Sprintf("%dx%d", j-i, cores[nodes[i]]))
		i = j
	}
	return strings.Join(runs, " ")
}

// TestSpecGrammarGolden pins what every spec string the repository itself
// writes down parses to: the canonical Spec(), the cluster-node count and
// the per-node core counts (an empty canon means the spec is rejected). The
// rows were generated at the commit before the two parsers became one —
// FromSpec's result where it accepted the spec, the ParsePlatform →
// FusedSpec → FromSpec path's otherwise — so the table is the record that
// the single parser builds the same trees; CHANGES.md (PR 15) lists the rows
// whose value changed with it. Both entry points must agree on every row.
// The two over-bound fuzz seeds are in TestSpecObjectBound: the earlier
// parser could not evaluate them.
func TestSpecGrammarGolden(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		canon string
		nodes int
		cores string
	}{
		// README.md
		{"pack:24 l3:1 core:8 pu:1", "pack:24 numa:1 l3:1 core:8 pu:1", 1, "1x192"},
		{"node:4 pack:2 core:8", "cluster:4 pack:2 numa:1 core:8 pu:1", 4, "4x16"},
		{"rack:2 node:4 pack:2 core:8", "rack:2 cluster:4 pack:2 numa:1 core:8 pu:1", 8, "8x16"},
		{"pod:2 rack:2 node:2 pack:1 core:4", "pod:2 rack:2 cluster:2 pack:1 numa:1 core:4 pu:1", 8, "8x4"},
		{"torus:4x4 pack:1 core:4", "torus:4x4 pack:1 numa:1 core:4 pu:1", 16, "16x4"},
		{"dragonfly:2,4,2 pack:1 core:4", "dragonfly:2,4,2 pack:1 numa:1 core:4 pu:1", 16, "16x4"},
		{"rack:2 node:{pack:2 core:8 | pack:1 core:4}", "rack:2 cluster:1 pack:2,1 numa:1 core:8,8,4 pu:1", 2, "1x16 1x4"},
		{"node:{pack:2 core:8 | pack:1 core:4}", "cluster:2 pack:2,1 numa:1 core:8,8,4 pu:1", 2, "1x16 1x4"},
		// docs/TOPOLOGY_SPECS.md
		{"rack:2 node:2,2,2 core:4", "", 0, ""},
		{"rack:2 core:8", "", 0, ""},
		{"pack:3 core:2,1,1", "pack:3 numa:1 core:2,1,1 pu:1", 1, "1x4"},
		{"core:2 pu:2,1", "numa:1 core:2 pu:2,1", 1, "1x2"},
		{"pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}", "pod:2 rack:2 cluster:2 pack:2,1,2,1,2,1,2,1 numa:1 core:4 pu:1", 8, "1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4"},
		{"rack:2 cluster:1 pack:2,1 numa:1 core:8,8,4 pu:1", "rack:2 cluster:1 pack:2,1 numa:1 core:8,8,4 pu:1", 2, "1x16 1x4"},
		{"torus:2x2x4 pack:1 core:4", "torus:2x2x4 pack:1 numa:1 core:4 pu:1", 16, "16x4"},
		{"torus:4x4 pack:1 core:2", "torus:4x4 pack:1 numa:1 core:2 pu:1", 16, "16x2"},
		{"pack:2 l3:1 core:2 pu:1", "pack:2 numa:1 l3:1 core:2 pu:1", 1, "1x4"},
		{"pack:24 l3:1 core:8 pu:2", "pack:24 numa:1 l3:1 core:8 pu:2", 1, "1x192"},
		{"node:2 pack:1 core:2", "cluster:2 pack:1 numa:1 core:2 pu:1", 2, "2x2"},
		{"rack:2 node:2 pack:1 core:2", "rack:2 cluster:2 pack:1 numa:1 core:2 pu:1", 4, "4x2"},
		{"pod:2 rack:2 node:2 pack:1 core:2", "pod:2 rack:2 cluster:2 pack:1 numa:1 core:2 pu:1", 8, "8x2"},
		{"pack:2 numa:2 core:4 pu:2", "pack:2 numa:2 core:4 pu:2", 1, "1x16"},
		{"pack:3 core:2,1,1 pu:1", "pack:3 numa:1 core:2,1,1 pu:1", 1, "1x4"},
		{"cluster:2 pack:2 core:4,2", "cluster:2 pack:2 numa:1 core:4,2,4,2 pu:1", 2, "2x6"},
		{"cluster:2 pack:2,1 core:8,8,4", "cluster:2 pack:2,1 numa:1 core:8,8,4 pu:1", 2, "1x16 1x4"},
		{"rack:2 node:2,3 pack:1 core:4", "rack:2 cluster:2,3 pack:1 numa:1 core:4 pu:1", 5, "5x4"},
		// experiment platform builders at their default and benchmark configurations
		{"cluster:4 pack:1 l3:1 core:12 pu:1", "cluster:4 pack:1 numa:1 l3:1 core:12 pu:1", 4, "4x12"},
		{"rack:2 node:4 pack:2 l3:1 core:4 pu:1", "rack:2 cluster:4 pack:2 numa:1 l3:1 core:4 pu:1", 8, "8x8"},
		{"rack:2 node:3 pack:2 l3:1 core:4 pu:1", "rack:2 cluster:3 pack:2 numa:1 l3:1 core:4 pu:1", 6, "6x8"},
		{"rack:4 node:8 pack:2 l3:1 core:4 pu:1", "rack:4 cluster:8 pack:2 numa:1 l3:1 core:4 pu:1", 32, "32x8"},
		{"pod:2 rack:2 node:2{pack:2 l3:1 core:4 pu:1 | pack:1 l3:1 core:4 pu:1}", "pod:2 rack:2 cluster:2 pack:2,1,2,1,2,1,2,1 numa:1 l3:1 core:4 pu:1", 8, "1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4"},
		{"pod:2 rack:4 node:2{pack:2 l3:1 core:4 pu:1 | pack:1 l3:1 core:4 pu:1}", "pod:2 rack:4 cluster:2 pack:2,1,2,1,2,1,2,1,2,1,2,1,2,1,2,1 numa:1 l3:1 core:4 pu:1", 16, "1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4 1x8 1x4"},
		{"torus:4x4 pack:1 l3:1 core:3 pu:1", "torus:4x4 pack:1 numa:1 l3:1 core:3 pu:1", 16, "16x3"},
		{"torus:8x8 pack:1 l3:1 core:4 pu:1", "torus:8x8 pack:1 numa:1 l3:1 core:4 pu:1", 64, "64x4"},
		{"rack:2 node:4 pack:2 core:4 pu:1", "rack:2 cluster:4 pack:2 numa:1 core:4 pu:1", 8, "8x8"},
		{"pod:2 rack:2 node:2 pack:2 core:4 pu:1", "pod:2 rack:2 cluster:2 pack:2 numa:1 core:4 pu:1", 8, "8x8"},
		{"cluster:100 pack:1 core:8", "cluster:100 pack:1 numa:1 core:8 pu:1", 100, "100x8"},
		{"cluster:1000 pack:1 core:8", "cluster:1000 pack:1 numa:1 core:8 pu:1", 1000, "1000x8"},
		// FuzzParsePlatform seeds
		{"pack:2 core:8", "pack:2 numa:1 core:8 pu:1", 1, "1x16"},
		{"cluster:4 pack:2 core:8", "cluster:4 pack:2 numa:1 core:8 pu:1", 4, "4x16"},
		{"rack:2 node:2,3 pack:2 core:8", "rack:2 cluster:2,3 pack:2 numa:1 core:8 pu:1", 5, "5x16"},
		{"pod:2 rack:2 node:2 pack:2 core:8", "pod:2 rack:2 cluster:2 pack:2 numa:1 core:8 pu:1", 8, "8x16"},
		{"rack:2 node:2{pack:2 core:8 | pack:1 core:4}", "rack:2 cluster:2 pack:2,1,2,1 numa:1 core:8,8,4,8,8,4 pu:1", 4, "1x16 1x4 1x16 1x4"},
		{"dragonfly:2,2,1{pack:1 core:4 | pack:1 core:2}", "dragonfly:2,2,1 pack:1 numa:1 core:4,2,4,2 pu:1", 4, "1x4 1x2 1x4 1x2"},
		{"torus:2x2{pack:1 core:4 | pack:1 core:2}", "torus:2x2 pack:1 numa:1 core:4,2,4,2 pu:1", 4, "1x4 1x2 1x4 1x2"},
		{"torus:1x1 core:4", "", 0, ""},
		{"dragonfly:0,0,0 core:4", "", 0, ""},
		{"torus:9999999x9999999 core:4", "", 0, ""},
		{"node:{} rack:", "", 0, ""},
		{"{{{}}}", "", 0, ""},
		{"torus:", "", 0, ""},
		{"pod:2,2 rack:1 cluster:1 pack:2", "", 0, ""},
		{"pod:1,2 rack:2 node:3 numa:3", "", 0, ""},
		// FuzzFromSpec seeds
		{"pack:2 numa:1 l3:1 core:4 pu:2", "pack:2 numa:1 l3:1 core:4 pu:2", 1, "1x8"},
		{"rack:2 cluster:2,3 pack:1 core:4", "rack:2 cluster:2,3 pack:1 numa:1 core:4 pu:1", 5, "5x4"},
		{"torus:2x3 pack:1 l3:1 core:2 pu:1", "torus:2x3 pack:1 numa:1 l3:1 core:2 pu:1", 6, "6x2"},
		{"torus:2x2 rack:2 core:4", "", 0, ""},
		{"core:0", "", 0, ""},
		{"torus:axb core:1", "", 0, ""},
		{"cluster:2 pack:2,2 core:4", "cluster:2 pack:2 numa:1 core:4 pu:1", 2, "2x8"},
		// the parsers' parent-commit disagreements
		{"cluster:4", "cluster:4 numa:1 core:1 pu:1", 4, "4x1"},
		{"torus:2x2", "torus:2x2 numa:1 core:1 pu:1", 4, "4x1"},
	} {
		p, perr := ParsePlatform(tc.spec)
		top, err := FromSpec(tc.spec)
		if (perr == nil) != (err == nil) {
			t.Errorf("%q: ParsePlatform error %v but FromSpec error %v", tc.spec, perr, err)
			continue
		}
		if tc.canon == "" {
			if err == nil {
				t.Errorf("%q: accepted as %q, want an error", tc.spec, top.Spec())
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if fused, _ := p.FusedSpec(); fused != tc.canon || top.Spec() != tc.canon {
			t.Errorf("%q: FusedSpec %q, Spec %q, want %q", tc.spec, fused, top.Spec(), tc.canon)
		}
		if p.Nodes() != tc.nodes || top.NumClusterNodes() != tc.nodes {
			t.Errorf("%q: %d parsed / %d built nodes, want %d", tc.spec, p.Nodes(), top.NumClusterNodes(), tc.nodes)
		}
		if got := nodeCoreRuns(top); got != tc.cores {
			t.Errorf("%q: per-node cores %q, want %q", tc.spec, got, tc.cores)
		}
	}
}
