package topology

import (
	"strings"
	"testing"
)

// FuzzParsePlatform checks that no platform spec panics the parser and that
// every accepted spec round-trips stably: parse -> FusedSpec -> parse gives
// the same fused spec and member list again (a fixed point after one
// normalization step).
func FuzzParsePlatform(f *testing.F) {
	for _, seed := range []string{
		"pack:2 core:8",
		"cluster:4 pack:2 core:8",
		"rack:2 node:2,3 pack:2 core:8",
		"pod:2 rack:2 node:2 pack:2 core:8",
		"rack:2 node:{pack:2 core:8 | pack:1 core:4}",
		"rack:2 node:2{pack:2 core:8 | pack:1 core:4}",
		"rack:2 cluster:1 pack:2,1 numa:1 core:8,8,4 pu:1",
		"torus:4x4 pack:1 core:4",
		"torus:2x2x4 pack:1 core:4",
		"dragonfly:2,4,2 pack:1 core:4",
		"dragonfly:2,2,1{pack:1 core:4 | pack:1 core:2}",
		"torus:2x2{pack:1 core:4 | pack:1 core:2}",
		"torus:1x1 core:4",
		"dragonfly:0,0,0 core:4",
		"torus:9999999x9999999 core:4",
		"node:{} rack:",
		"{{{}}}",
		"torus:",
		"pod:2,2 rack:1 cluster:1 pack:2",
		"pod:1,2 rack:2 node:3 numa:3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 256 {
			return // bound the work per input, not a grammar property
		}
		p, err := ParsePlatform(spec)
		if err != nil {
			return
		}
		fused, err := p.FusedSpec()
		if err != nil {
			t.Fatalf("accepted spec %q but FusedSpec failed: %v", spec, err)
		}
		p2, err := ParsePlatform(fused)
		if err != nil {
			t.Fatalf("FusedSpec %q of %q does not re-parse: %v", fused, spec, err)
		}
		fused2, err := p2.FusedSpec()
		if err != nil {
			t.Fatalf("re-parsed %q but FusedSpec failed: %v", fused, err)
		}
		if fused2 != fused {
			t.Fatalf("FusedSpec not a fixed point: %q -> %q -> %q", spec, fused, fused2)
		}
		if p2.Nodes() != p.Nodes() {
			t.Fatalf("node count changed over round-trip of %q: %d -> %d", spec, p.Nodes(), p2.Nodes())
		}
	})
}

// fuzzObjects bounds the tree a fuzz target builds per input — the work, not
// a grammar property; the grammar's own bound is maxSpecObjects.
const fuzzObjects = 1 << 16

// checkNodeLayout requires NodeCores to tile [0, NumCores) in node order
// and every core to lie in the range of its own cluster node (node 0 on a
// single machine).
func checkNodeLayout(t *testing.T, to *Topology) {
	t.Helper()
	next := 0
	for n := 0; n < to.NumClusterNodes(); n++ {
		lo, hi := to.NodeCores(n)
		if lo != next || hi <= lo {
			t.Fatalf("%q: node %d holds cores [%d,%d), want a non-empty range from %d", to.Spec(), n, lo, hi, next)
		}
		for c := lo; c < hi; c++ {
			if node := to.ClusterNodeOf(to.Cores()[c]); node != nil && node.LevelIndex != n {
				t.Fatalf("%q: core %d is in node %d's range but on node %d", to.Spec(), c, n, node.LevelIndex)
			}
		}
		next = hi
	}
	if next != to.NumCores() {
		t.Fatalf("%q: the node ranges end at core %d of %d", to.Spec(), next, to.NumCores())
	}
}

// FuzzFromSpec checks that no spec panics the parser or the tree builder,
// that accepted topologies re-parse from their canonical Spec(), that the
// parsed platform renders exactly the built topology's Spec(), and that the
// node layout tiles the cores (checkNodeLayout).
func FuzzFromSpec(f *testing.F) {
	for _, seed := range []string{
		"pack:2 numa:1 l3:1 core:4 pu:2",
		"cluster:4 pack:2 core:8",
		"rack:2 cluster:2,3 pack:1 core:4",
		"torus:4x4 pack:1 core:4",
		"torus:2x3 pack:1 l3:1 core:2 pu:1",
		"dragonfly:2,4,2 pack:1 core:4",
		"torus:2x2 rack:2 core:4",
		"core:0",
		"torus:axb core:1",
		"cluster:2 pack:2,2 core:4",
		"core:2000000000",
		"cluster:1000 core:2000",
		"rack:2 node:{pack:2 core:4 | pack:1 core:2}",
		"dragonfly:2,2,1{pack:1 core:4 | pack:1 core:2}",
		"cluster:2 pack:1 core:2 pu:2,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 256 {
			return
		}
		p, perr := ParsePlatform(spec)
		if perr == nil {
			if _, objects, _ := walk(p.levels); objects > fuzzObjects {
				return
			}
		}
		to, err := FromSpec(spec)
		if (err == nil) != (perr == nil) {
			t.Fatalf("%q: ParsePlatform error %v but FromSpec error %v", spec, perr, err)
		}
		if err != nil {
			return
		}
		canon := to.Spec()
		if fused, _ := p.FusedSpec(); fused != canon {
			t.Fatalf("%q: FusedSpec %q but built Spec %q", spec, fused, canon)
		}
		checkNodeLayout(t, to)
		to2, err := FromSpec(canon)
		if err != nil {
			t.Fatalf("canonical spec %q of %q does not re-parse: %v", canon, spec, err)
		}
		if to2.Spec() != canon {
			t.Fatalf("canonical spec not a fixed point: %q -> %q -> %q", spec, canon, to2.Spec())
		}
		if strings.Contains(canon, "torus") || strings.Contains(canon, "dragonfly") {
			if to.FabricShape() == nil {
				t.Fatalf("canonical spec %q names a shape but FabricShape() is nil", canon)
			}
		}
	})
}
