package topology

import (
	"strings"
	"testing"
)

func TestClusterSpecGrammar(t *testing.T) {
	tests := []struct {
		spec     string
		clusters int // NumClusterNodes
		cores    int
		wantErr  string
	}{
		{"cluster:4 pack:2 core:8", 4, 64, ""},
		// A leading "node" before a package level is promoted to the
		// cluster level (the ISSUE-2 grammar extension).
		{"node:4 pack:2 core:8", 4, 64, ""},
		{"node:2 group:2 pack:2 core:4", 2, 32, ""},
		// A leading "node" NOT followed by a group/pack level keeps its
		// NUMANode meaning (backwards compatibility).
		{"node:4 core:8", 1, 32, ""},
		{"node:2 l3:1 core:4", 1, 8, ""},
		// The promotion lets "node" and "numa" coexist.
		{"node:2 pack:2 numa:2 core:4", 2, 32, ""},
		// Out-of-order and duplicate levels still fail.
		{"numa:4 pack:2 core:8", 0, 0, "root-to-leaf order"},
		{"cluster:2 cluster:2 core:4", 0, 0, "appears twice"},
		{"pack:2 cluster:2 core:4", 0, 0, "root-to-leaf order"},
	}
	for _, tc := range tests {
		topo, err := FromSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("FromSpec(%q) error = %v, want substring %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("FromSpec(%q): %v", tc.spec, err)
			continue
		}
		if got := topo.NumClusterNodes(); got != tc.clusters {
			t.Errorf("FromSpec(%q): %d cluster nodes, want %d", tc.spec, got, tc.clusters)
		}
		if got := topo.NumCores(); got != tc.cores {
			t.Errorf("FromSpec(%q): %d cores, want %d", tc.spec, got, tc.cores)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("FromSpec(%q): invalid topology: %v", tc.spec, err)
		}
	}
}

func TestClusterSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"node:4 pack:2 core:8",
		"cluster:2 core:16",
		"cluster:3 pack:2 numa:2 l3:1 core:4 pu:2",
	} {
		topo, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		again, err := FromSpec(topo.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q of %q does not reparse: %v", topo.Spec(), spec, err)
		}
		if again.Spec() != topo.Spec() {
			t.Errorf("spec %q not stable: %q -> %q", spec, topo.Spec(), again.Spec())
		}
		if again.NumClusterNodes() != topo.NumClusterNodes() {
			t.Errorf("spec %q round trip changed cluster count", spec)
		}
	}
}

func TestClusterStructure(t *testing.T) {
	topo, err := FromSpec("node:2 pack:2 core:4")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ClusterNodes()); got != 2 {
		t.Fatalf("ClusterNodes: %d, want 2", got)
	}
	// Every cluster node carries the fabric attributes.
	for _, cn := range topo.ClusterNodes() {
		if cn.Attr.LatencyCycles <= 0 || cn.Attr.BandwidthBytesPerSec <= 0 {
			t.Errorf("%v missing fabric attributes: %+v", cn, cn.Attr)
		}
	}
	// PUs of different cluster nodes never share one; PUs of the same do.
	pus := topo.PUs()
	half := len(pus) / 2
	if topo.ClusterNodeOf(pus[0]) != topo.ClusterNodeOf(pus[half-1]) {
		t.Error("PUs of node 0 should share a cluster node")
	}
	if topo.ClusterNodeOf(pus[0]) == topo.ClusterNodeOf(pus[half]) {
		t.Error("PUs of different cluster nodes reported as sharing one")
	}
	// A single-machine topology reports everything on one node.
	single, err := FromSpec("pack:2 core:4")
	if err != nil {
		t.Fatal(err)
	}
	if single.NumClusterNodes() != 1 {
		t.Error("single machine should report 1 cluster node")
	}
}
