package topology

import (
	"strings"
	"testing"
)

func TestFromSpecAttrsCustom(t *testing.T) {
	def := DefaultAttrs()
	def.ClockHz = 3e9
	def.L3Size = 8 << 20
	def.MemBandwidth = 20e9
	top, err := FromSpecAttrs("pack:2 l3:1 core:4 pu:1", def)
	if err != nil {
		t.Fatal(err)
	}
	if got := top.Root().Attr.ClockHz; got != 3e9 {
		t.Errorf("clock = %v", got)
	}
	l3 := top.PU(0).Ancestor(L3)
	if l3 == nil || l3.Attr.CacheSize != 8<<20 {
		t.Errorf("L3 size = %+v", l3)
	}
	node := top.NUMANodeOf(top.PU(0))
	if node.Attr.BandwidthBytesPerSec != 20e9 {
		t.Errorf("node bandwidth = %v", node.Attr.BandwidthBytesPerSec)
	}
}

func TestGroupLevelAttrs(t *testing.T) {
	top, err := FromSpec("group:2 pack:2 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	groups := top.Level(top.DepthOf(Group))
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Attr.BandwidthBytesPerSec != DefaultAttrs().LinkBandwidth {
		t.Errorf("group link bandwidth = %v", groups[0].Attr.BandwidthBytesPerSec)
	}
	// Machine spanning groups: remote access crosses more hops than within
	// a group.
	pus := top.PUs()
	intra := top.HopDistance(pus[0], pus[3]) // same group, other pack
	inter := top.HopDistance(pus[0], pus[4]) // other group
	if inter <= intra {
		t.Errorf("inter-group hops %d not above intra %d", inter, intra)
	}
}

func TestRenderDeepTopology(t *testing.T) {
	top, err := FromSpec("group:2 pack:2 numa:2 l3:1 l2:2 l1:1 core:2 pu:2")
	if err != nil {
		t.Fatal(err)
	}
	r := top.Render()
	for _, want := range []string{"Group#0", "NUMANode#0", "L2#0", "KiB", "x2 identical"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	if err := top.CheckUltrametric(); err != nil {
		t.Errorf("deep topology: %v", err)
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{32 << 10, "32KiB"},
		{24 << 20, "24MiB"},
		{2 << 30, "2GiB"},
	}
	for _, tc := range cases {
		if got := formatSize(tc.n); got != tc.want {
			t.Errorf("formatSize(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestObjectString(t *testing.T) {
	top := PaperMachine()
	if got := top.PU(5).String(); got != "PU#5" {
		t.Errorf("PU String = %q", got)
	}
	if got := top.Root().String(); got != "Machine#0" {
		t.Errorf("root String = %q", got)
	}
}

func TestLevelQueriesOutOfRange(t *testing.T) {
	top := PaperMachine()
	if top.Level(-1) != nil || top.Level(99) != nil {
		t.Errorf("out-of-range Level not nil")
	}
}

func TestLatencyCyclesNoCacheTopology(t *testing.T) {
	// A topology without any declared cache levels falls back to unit
	// same-PU latency and memory latency otherwise.
	top, err := FromSpec("pack:2 core:2 pu:2")
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	if got := top.LatencyCycles(pus[0], pus[0]); got != 1 {
		t.Errorf("same-PU latency without caches = %v, want 1", got)
	}
	if got := top.LatencyCycles(pus[0], pus[2]); got != DefaultAttrs().MemLatencyCycles {
		t.Errorf("same-node latency = %v, want memory latency", got)
	}
}

func TestValidateRejectsMissingNUMA(t *testing.T) {
	// Hand-build a tree with no NUMA level: Validate must reject it.
	root := &Object{Kind: Machine}
	pu := &Object{Kind: PU}
	core := &Object{Kind: Core, Children: []*Object{pu}}
	root.Children = []*Object{core}
	top := build(root, "hand")
	if err := top.Validate(); err == nil {
		t.Errorf("topology without NUMA level accepted")
	}
}

func TestSpecWhitespaceTolerant(t *testing.T) {
	top, err := FromSpec("  pack:2    core:3\tpu:1  ")
	if err != nil {
		t.Fatal(err)
	}
	if top.NumCores() != 6 {
		t.Errorf("cores = %d", top.NumCores())
	}
	// Case-insensitive kind names.
	top, err = FromSpec("PACK:2 Core:3 PU:1")
	if err != nil {
		t.Fatal(err)
	}
	if top.NumPUs() != 6 {
		t.Errorf("PUs = %d", top.NumPUs())
	}
}
