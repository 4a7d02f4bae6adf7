package topology

import (
	"strings"
	"testing"
)

// TestRackSpec covers the rack tier of the spec grammar: a well-formed rack
// spec builds a three-tier fabric, and every malformed variant returns an
// error (never a panic).
func TestRackSpec(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		wantErr string // empty means the spec must parse
	}{
		{"rack with node tier", "rack:2 node:4 pack:2 core:8", ""},
		{"rack with cluster tier", "rack:2 cluster:4 core:16", ""},
		{"rack of flat nodes", "rack:3 node:2 core:4", ""},
		{"rack zero", "rack:0 node:4 pack:2 core:8", "invalid count"},
		{"rack negative", "rack:-1 node:2 core:4", "invalid count"},
		{"rack without node tier", "rack:2 core:8", "requires a node (cluster) tier"},
		{"rack without node tier, deep", "rack:2 pack:2 core:8", "requires a node (cluster) tier"},
		{"rack alone", "rack:2", "requires a node (cluster) tier"},
		{"rack below cluster", "cluster:2 rack:2 core:8", "root-to-leaf order"},
		{"rack twice", "rack:2 rack:2 node:2 core:4", "appears twice"},
		{"uneven rack list", "rack:2,3 node:2 core:4", "2 counts for 1 parents"},
		{"trailing arity list on nodes", "rack:2 node:2,2,2 core:4", "3 counts for 2 parents"},
		{"trailing arity list on cores", "node:2 pack:1 core:4,4,4", "3 counts for 2 parents"},
		{"rack zero in list", "rack:1,0 node:2 core:4", "invalid count"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			top, err := FromSpec(tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("FromSpec(%q) failed: %v", tc.spec, err)
				}
				if err := top.Validate(); err != nil {
					t.Fatalf("built topology invalid: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("FromSpec(%q) accepted, want error containing %q", tc.spec, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRackTopologyStructure checks the shape and indexes of a two-rack
// fabric: rack/cluster counts, membership queries, and the hop metric that
// separates intra-rack from rack-crossing paths.
func TestRackTopologyStructure(t *testing.T) {
	top, err := FromSpec("rack:2 node:2 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	if got := top.NumRacks(); got != 2 {
		t.Fatalf("NumRacks = %d, want 2", got)
	}
	if got := top.NumClusterNodes(); got != 4 {
		t.Fatalf("NumClusterNodes = %d, want 4", got)
	}
	if got := top.Spec(); !strings.HasPrefix(got, "rack:2 cluster:2 ") {
		t.Errorf("normalized spec = %q, want rack:2 cluster:2 prefix", got)
	}
	nodes := top.ClusterNodes()
	if top.RackOf(nodes[0]) != top.RackOf(nodes[1]) {
		t.Error("nodes 0 and 1 should share rack 0")
	}
	if top.RackOf(nodes[1]) == top.RackOf(nodes[2]) {
		t.Error("nodes 1 and 2 are in different racks")
	}
	if r := top.RackOf(nodes[3]); r == nil || r.LevelIndex != 1 {
		t.Errorf("RackOf(node 3) = %v, want Rack#1", r)
	}
	// The tree metric sees the extra switch tier: same-rack nodes are 2 hops
	// apart, rack-crossing pairs 4.
	if got := top.HopDistance(nodes[0], nodes[1]); got != 2 {
		t.Errorf("intra-rack hop distance = %d, want 2", got)
	}
	if got := top.HopDistance(nodes[0], nodes[2]); got != 4 {
		t.Errorf("cross-rack hop distance = %d, want 4", got)
	}
	if err := top.CheckUltrametric(); err != nil {
		t.Error(err)
	}
}

// TestRackAttrs checks that racks carry the uplink attributes and cluster
// nodes the NIC attributes, with Defaults overridable.
func TestRackAttrs(t *testing.T) {
	def := DefaultAttrs()
	def.UplinkLatencyCycles = 12345
	def.UplinkBandwidth = 3e9
	top, err := FromSpecAttrs("rack:2 node:2 core:4", def)
	if err != nil {
		t.Fatal(err)
	}
	r := top.racks[0]
	if r.Attr.LatencyCycles != 12345 || r.Attr.BandwidthBytesPerSec != 3e9 {
		t.Errorf("rack attrs = %+v, want uplink defaults", r.Attr)
	}
	c := top.ClusterNodes()[0]
	if c.Attr.LatencyCycles != def.NetLatencyCycles || c.Attr.BandwidthBytesPerSec != def.NetBandwidth {
		t.Errorf("cluster attrs = %+v, want NIC defaults", c.Attr)
	}
	// Render names both tiers with their link attributes.
	out := top.Render()
	for _, want := range []string{"Rack#0 (uplink", "Cluster#0 (link"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestSingleMachineHasNoRacks pins the degenerate accessors.
func TestSingleMachineHasNoRacks(t *testing.T) {
	top := PaperMachine()
	if top.NumRacks() != 0 {
		t.Errorf("single machine reports %d racks", top.NumRacks())
	}
	if top.RackOf(top.PU(0)) != nil {
		t.Error("RackOf on a single machine should be nil")
	}
}
