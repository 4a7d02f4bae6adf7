package treematch

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// mapMatrixOracle is MapMatrix as it stood before the Mapper kept a working
// set: the matrix padded by a copy (ExtendZero), the entities each group
// covers as one slice per entity, expanded level by level, and fresh
// grouping and aggregation memory on every level. It is the oracle a reused
// Mapper must match bit for bit.
func mapMatrixOracle(tree *Tree, m *comm.Matrix) (*Mapping, error) {
	p := m.Order()
	if p == 0 {
		return &Mapping{VirtualArity: 1}, nil
	}
	work := tree
	virtual := 1
	if p > tree.Leaves() {
		virtual = (p + tree.Leaves() - 1) / tree.Leaves()
		var err error
		work, err = tree.Extend(virtual)
		if err != nil {
			return nil, err
		}
	}
	padded := m
	if p < work.Leaves() {
		var err error
		padded, err = m.ExtendZero(work.Leaves())
		if err != nil {
			return nil, err
		}
	}
	cur := make([][]int, padded.Order())
	for i := range cur {
		cur[i] = []int{i}
	}
	mat := padded
	var levels [][][]int
	for depth := work.Depth() - 1; depth >= 1; depth-- {
		arity := work.Arity(depth - 1)
		groups := groupProcesses(mat, arity, refinePasses(mat.Order()), new(affinityFill))
		levels = append(levels, groups)
		cur = expand(groups, cur)
		var err error
		mat, err = mat.Aggregate(groups)
		if err != nil {
			return nil, err
		}
	}
	if len(cur) != 1 {
		return nil, fmt.Errorf("treematch: internal error: %d root groups", len(cur))
	}
	res := &Mapping{
		Assignment:   make([]int, p),
		Slot:         make([]int, p),
		VirtualArity: virtual,
		Levels:       levels,
	}
	for pos, entity := range cur[0] {
		if entity < p {
			res.Assignment[entity] = pos / virtual
			res.Slot[entity] = pos % virtual
		}
	}
	return res, nil
}

// mapperCase is one call of the differential: a tree and a matrix.
type mapperCase struct {
	name string
	tree *Tree
	m    *comm.Matrix
}

// mapperCases is a sequence of calls whose orders grow and shrink, so a
// reused Mapper meets storage left larger and smaller by the call before:
// padded, exact and oversubscribed orders; sub-matrices of unsorted ids, as
// Hierarchical's pool carves them; asymmetric matrices with non-integer
// volumes, whose aggregates differ from their mirrors by a rounding; and
// trees from one to four levels.
func mapperCases(t *testing.T) []mapperCase {
	t.Helper()
	tree := func(arities ...int) *Tree {
		tr, err := NewTree(arities)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rng := rand.New(rand.NewSource(3))
	big := comm.RandomSparse(5000, 8, 100, 1)
	sub := func(n int) *comm.Matrix {
		s, err := big.Submatrix(rng.Perm(big.Order())[:n])
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	asym := func(n int, seed int64) *comm.Matrix {
		m := comm.Random(n, 0.3, 9.7, seed)
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < n; k++ { // one-directional volumes, in their symmetric form
			m.AddSym(r.Intn(n), r.Intn(n), r.Float64()*3/2)
		}
		return m
	}
	var cases []mapperCase
	add := func(name string, tr *Tree, m *comm.Matrix) {
		cases = append(cases, mapperCase{fmt.Sprintf("%d/%s/%v/order%d", len(cases), name, tr, m.Order()), tr, m})
	}
	add("sub-oversub", tree(8), sub(10))
	add("sub-padded", tree(8), sub(5))
	add("stencil-exact", tree(4, 4), comm.Stencil2DSparse(4, 4, 64, 8))
	add("sub-big-oversub", tree(2, 4), sub(81))
	add("asym-padded", tree(2, 2, 4), asym(11, 1))
	add("one", tree(8), sub(1))
	add("asym-oversub", tree(3, 3), asym(40, 2))
	add("stencil-padded", tree(6, 8), comm.Stencil2DSparse(7, 5, 64, 8))
	add("sub-exact", tree(2, 2, 2, 2), sub(16))
	add("asym-exact", tree(6), asym(6, 3))
	add("sub-big-padded", tree(24, 8), sub(150))
	add("zero", tree(4), comm.New(0))
	add("asym-big-oversub", tree(2, 3), asym(45, 4))
	add("sub-small", tree(8), sub(3))
	return cases
}

// TestMapperMatchesOracle holds one Mapper, reused across the whole
// sequence, to the oracle: every Mapping field bit for bit.
func TestMapperMatchesOracle(t *testing.T) {
	var w Mapper
	for _, c := range mapperCases(t) {
		got, err := w.mapMatrix(c.tree, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := mapMatrixOracle(c.tree, c.m)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) || !reflect.DeepEqual(got.Slot, want.Slot) ||
			got.VirtualArity != want.VirtualArity || len(got.Levels) != len(want.Levels) {
			t.Fatalf("%s: mapping %v slots %v arity %d levels %d, oracle %v %v %d %d", c.name,
				got.Assignment, got.Slot, got.VirtualArity, len(got.Levels),
				want.Assignment, want.Slot, want.VirtualArity, len(want.Levels))
		}
		for l := range got.Levels {
			if !reflect.DeepEqual(got.Levels[l], want.Levels[l]) {
				t.Fatalf("%s: level %d groups %v, oracle %v", c.name, l, got.Levels[l], want.Levels[l])
			}
		}
	}
}

// TestMapperReuseMatchesFresh runs the full Algorithm 1 (control threads
// included: hyperthread, spare-core and unmapped cases, with and without
// distribution) through one reused Mapper and requires every Result to
// equal a fresh Map's, and no Result to change when the Mapper maps on.
func TestMapperReuseMatchesFresh(t *testing.T) {
	var w Mapper
	type kept struct {
		name      string
		got, want *Result
	}
	var all []kept
	for _, c := range mapperCases(t) {
		for _, ways := range []int{1, 2} {
			for _, dist := range []bool{false, true} {
				target, opt := Target{Tree: c.tree, SMTWays: ways}, Options{Distribute: dist}
				got, err := w.Map(target, c.m, opt)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				want, err := Map(target, c.m, opt)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/smt%d/distribute=%v", c.name, ways, dist)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: reused Mapper's result differs from a fresh one", name)
				}
				all = append(all, kept{name, got, want})
			}
		}
	}
	for _, k := range all {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Errorf("%s: result changed after the Mapper mapped on", k.name)
		}
	}
}

// TestMapperNodeAllocs pins the work of one pool worker on one cluster
// node of place-scale's large half: the sub-matrix of a connected 10-task
// group of the degree-8 random graph (task 0 and the first tasks its
// breadth-first walk meets, in descending order, so carving has to sort
// every row), cut into the worker's storage and mapped onto a pack:1 core:8
// node by its warmed Mapper. Before the working set was kept this
// cost 139 allocations (10 in Submatrix, 129 in Map), and 17 while every
// fill tested the matrix's symmetry; what remains is the result, the
// per-level groups the result keeps and the oversubscribed tree.
func TestMapperNodeAllocs(t *testing.T) {
	topo, err := topology.FromSpec("pack:1 core:8")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromTopology(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	m := comm.RandomSparse(10000, 8, 100, 1)
	ids := []int{0}
	for q := 0; len(ids) < 10; q++ {
		m.ForEachNeighbor(ids[q], func(j int, _ float64) {
			if len(ids) < 10 && !slices.Contains(ids, j) {
				ids = append(ids, j)
			}
		})
	}
	slices.Reverse(ids)
	var st comm.Storage
	var w Mapper
	node := func() {
		sub, err := m.SubmatrixIn(&st, ids)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Map(Target{Tree: tree, SMTWays: 1}, sub, Options{Distribute: true}); err != nil {
			t.Fatal(err)
		}
	}
	node()
	if allocs := testing.AllocsPerRun(50, node); allocs > 15 {
		t.Errorf("%v allocations per warmed node, want ≤ 15", allocs)
	}
}
