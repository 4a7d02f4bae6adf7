package topology

import (
	"strings"
	"testing"
)

func mustSpec(t *testing.T, spec string) *Topology {
	t.Helper()
	top, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec(%q): %v", spec, err)
	}
	return top
}

func TestPaperMachineShape(t *testing.T) {
	top := PaperMachine()
	if got := top.NumPUs(); got != 192 {
		t.Errorf("NumPUs = %d, want 192", got)
	}
	if got := top.NumCores(); got != 192 {
		t.Errorf("NumCores = %d, want 192", got)
	}
	if got := top.NumNUMANodes(); got != 24 {
		t.Errorf("NumNUMANodes = %d, want 24", got)
	}
	if got := len(top.Level(top.DepthOf(Package))); got != 24 {
		t.Errorf("packages = %d, want 24", got)
	}
	if top.SMTWays() != 1 {
		t.Errorf("PaperMachine should not have SMT")
	}
}

func TestFromSpecNormalization(t *testing.T) {
	tests := []struct {
		spec     string
		wantSpec string
		pus      int
		numa     int
		cores    int
	}{
		{"pack:24 core:8 pu:1", "pack:24 numa:1 core:8 pu:1", 192, 24, 192},
		{"core:4", "numa:1 core:4 pu:1", 4, 1, 4},
		{"pack:2 numa:2 core:4 pu:2", "pack:2 numa:2 core:4 pu:2", 32, 4, 16},
		{"group:2 pack:3 l3:1 core:2", "group:2 pack:3 numa:1 l3:1 core:2 pu:1", 12, 6, 12},
		{"numa:4 l3:2 l2:2 l1:1 core:1 pu:2", "numa:4 l3:2 l2:2 l1:1 core:1 pu:2", 32, 4, 16},
	}
	for _, tc := range tests {
		top := mustSpec(t, tc.spec)
		if top.Spec() != tc.wantSpec {
			t.Errorf("spec %q normalized to %q, want %q", tc.spec, top.Spec(), tc.wantSpec)
		}
		if top.NumPUs() != tc.pus {
			t.Errorf("spec %q: NumPUs = %d, want %d", tc.spec, top.NumPUs(), tc.pus)
		}
		if top.NumNUMANodes() != tc.numa {
			t.Errorf("spec %q: NumNUMANodes = %d, want %d", tc.spec, top.NumNUMANodes(), tc.numa)
		}
		if top.NumCores() != tc.cores {
			t.Errorf("spec %q: NumCores = %d, want %d", tc.spec, top.NumCores(), tc.cores)
		}
		if err := top.Validate(); err != nil {
			t.Errorf("spec %q: Validate: %v", tc.spec, err)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"pack",
		"pack:0",
		"pack:-3",
		"pack:x",
		"bogus:4",
		"machine:1 pack:2",
		"core:2 pack:2", // wrong order
		"pack:2 pack:3", // duplicate
		"pu:2 core:2",   // wrong order
		"l1:2 l3:2",     // wrong order
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) succeeded, want error", spec)
		}
	}
}

func TestDepthAndArities(t *testing.T) {
	top := mustSpec(t, "pack:2 numa:2 core:4 pu:2")
	// machine, pack, numa, core, pu
	if got := top.Depth(); got != 5 {
		t.Fatalf("Depth = %d, want 5", got)
	}
	for d, want := range []int{2, 2, 4, 2, 0} {
		if got := len(top.Level(d)[0].Children); got != want {
			t.Errorf("arity of level %d = %d, want %d", d, got, want)
		}
	}
	kinds := []Kind{Machine, Package, NUMANode, Core, PU}
	for d, k := range kinds {
		if got := top.Level(d)[0].Kind; got != k {
			t.Errorf("level %d holds %v, want %v", d, got, k)
		}
		if top.DepthOf(k) != d {
			t.Errorf("DepthOf(%v) = %d, want %d", k, top.DepthOf(k), d)
		}
	}
	if top.DepthOf(L3) != -1 {
		t.Errorf("DepthOf(L3) = %d, want -1", top.DepthOf(L3))
	}
}

func TestAncestorAndLCA(t *testing.T) {
	top := mustSpec(t, "pack:2 core:2 pu:2")
	pus := top.PUs()
	if len(pus) != 8 {
		t.Fatalf("NumPUs = %d, want 8", len(pus))
	}
	// PUs 0,1 share a core; 0..3 share a package; 0..7 share only the machine.
	if lca := top.LCA(pus[0], pus[1]); lca.Kind != Core {
		t.Errorf("LCA(pu0,pu1) = %v, want a Core", lca)
	}
	// An implicit numa:1 level sits below each package, so the LCA of two
	// PUs of the same socket is that socket's NUMA node.
	if lca := top.LCA(pus[0], pus[3]); lca.Kind != NUMANode {
		t.Errorf("LCA(pu0,pu3) = %v, want a NUMANode", lca)
	}
	if a := top.LCA(pus[0], pus[3]).Ancestor(Package); a == nil || a.LevelIndex != 0 {
		t.Errorf("LCA(pu0,pu3) not under Package#0: %v", a)
	}
	if lca := top.LCA(pus[0], pus[7]); lca.Kind != Machine {
		t.Errorf("LCA(pu0,pu7) = %v, want the Machine", lca)
	}
	if lca := top.LCA(pus[5], pus[5]); lca != pus[5] {
		t.Errorf("LCA(x,x) = %v, want x", lca)
	}
	if a := pus[6].Ancestor(Package); a == nil || a.LevelIndex != 1 {
		t.Errorf("Ancestor(Package) of pu6 = %v, want Package#1", a)
	}
	if a := pus[0].Ancestor(L3); a != nil {
		t.Errorf("Ancestor(L3) = %v, want nil", a)
	}
	// LCA of objects at different depths.
	core := pus[2].Parent
	if lca := top.LCA(core, pus[3]); lca != core {
		t.Errorf("LCA(core, its pu) = %v, want the core itself", lca)
	}
}

func TestHopDistance(t *testing.T) {
	top := mustSpec(t, "pack:2 core:2 pu:2")
	pus := top.PUs()
	tests := []struct {
		a, b int
		want int
	}{
		{0, 0, 0},
		{0, 1, 2}, // same core: up to core, down
		{0, 2, 4}, // same package: via numa? pack:2 numa:1 core:2 pu:2 -> up pu,core,numa? depth chain machine-pack-numa-core-pu
		{0, 7, 8},
	}
	for _, tc := range tests {
		if got := top.HopDistance(pus[tc.a], pus[tc.b]); got != tc.want {
			t.Errorf("HopDistance(pu%d,pu%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSharedCacheAndNUMA(t *testing.T) {
	top := mustSpec(t, "pack:2 l3:1 l2:2 core:2 pu:1")
	pus := top.PUs()
	// Layout per package: l3 -> 2×l2 -> 2×core -> pu. 4 PUs per package.
	if c := top.SharedCache(pus[0], pus[1]); c == nil || c.Kind != L2 {
		t.Errorf("SharedCache(pu0,pu1) = %v, want an L2", c)
	}
	if c := top.SharedCache(pus[0], pus[2]); c == nil || c.Kind != L3 {
		t.Errorf("SharedCache(pu0,pu2) = %v, want an L3", c)
	}
	if c := top.SharedCache(pus[0], pus[4]); c != nil {
		t.Errorf("SharedCache(pu0,pu4) = %v, want nil (different packages)", c)
	}
	if !top.SameNUMANode(pus[0], pus[3]) {
		t.Errorf("pu0 and pu3 should share a NUMA node")
	}
	if top.SameNUMANode(pus[0], pus[4]) {
		t.Errorf("pu0 and pu4 should not share a NUMA node")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	top := mustSpec(t, "pack:2 core:2 pu:1")
	if err := top.Validate(); err != nil {
		t.Fatalf("fresh topology invalid: %v", err)
	}
	// Corrupt a parent pointer.
	orig := top.PUs()[0].Parent
	top.PUs()[0].Parent = top.PUs()[3].Parent
	if err := top.Validate(); err == nil {
		t.Errorf("Validate accepted corrupted parent pointer")
	}
	top.PUs()[0].Parent = orig
	// Corrupt a depth.
	top.PUs()[1].Depth = 0
	if err := top.Validate(); err == nil {
		t.Errorf("Validate accepted corrupted depth")
	}
}

func TestRenderAndString(t *testing.T) {
	top := PaperMachine()
	s := top.String()
	for _, want := range []string{"24 Package", "192 PU", "24 NUMANode"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	r := top.Render()
	for _, want := range []string{"Machine", "x24 identical", "L3#0", "PU#0"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render() missing %q in:\n%s", want, r)
		}
	}
}

func TestKindString(t *testing.T) {
	if Machine.String() != "Machine" || PU.String() != "PU" || L3.String() != "L3" {
		t.Errorf("Kind.String misbehaves: %v %v %v", Machine, PU, L3)
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range Kind.String = %q", got)
	}
	if !L1.IsCache() || !L2.IsCache() || !L3.IsCache() || Core.IsCache() {
		t.Errorf("IsCache misclassifies")
	}
}

func TestOSIndexAssignment(t *testing.T) {
	top := mustSpec(t, "pack:2 core:2 pu:2")
	for i, pu := range top.PUs() {
		if pu.OSIndex != i {
			t.Errorf("PU %d has OSIndex %d", i, pu.OSIndex)
		}
	}
	if top.Root().OSIndex != -1 {
		t.Errorf("root OSIndex = %d, want -1", top.Root().OSIndex)
	}
}
