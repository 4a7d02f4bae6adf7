package treematch

import (
	"fmt"

	"repro/internal/comm"
)

// Options tunes the mapping algorithm. The zero value requests the defaults.
type Options struct {
	// Distribute enables the paper's load-distribution requirement: when
	// there are fewer computing entities than leaves, the tree is first
	// restricted (Tree.Restrict) so that affine groups spread across the
	// NUMA nodes instead of piling onto one socket.
	Distribute bool
	// Spectral, when set, memoizes the spectral partition candidates' orders
	// across PartitionAcrossWeighted calls on one matrix.
	// It saves work only: every partition is the one nil computes.
	Spectral *SpectralMemo
}

// partitionRefinePasses bounds the pairwise-swap refinement of the
// node-level partitions, whatever their order.
const partitionRefinePasses = 2

// refinePasses bounds the pairwise-swap refinement inside groupProcesses
// during the per-level mapping: one pass less for matrices above order 1024,
// to keep the mapping of very large instances fast.
func refinePasses(order int) int {
	if order > 1024 {
		return 1
	}
	return partitionRefinePasses
}

// Mapping is the result of mapping a communication matrix onto a tree.
type Mapping struct {
	// Assignment maps each entity of the input matrix to a physical leaf
	// index of the tree (0..Leaves()-1). With oversubscription several
	// entities may share a leaf.
	Assignment []int
	// Slot maps each entity to its virtual slot on the assigned leaf
	// (always 0 without oversubscription).
	Slot []int
	// VirtualArity is 1 when the resources sufficed, and otherwise the
	// number of virtual slots added per leaf by manage_oversubscription.
	VirtualArity int
	// Levels records the group structure built at each tree level, from the
	// leaves upward: Levels[0] is the grouping of the original (padded)
	// entities, Levels[1] the grouping of those groups, and so on. Exposed
	// for inspection, rendering and tests.
	Levels [][][]int
}

// Mapper runs Algorithm 1, the partition portfolio and the distance
// matcher with a working set it keeps from one call to the next: the
// padding view, the leaf order, one candidateSet (the greedy fill's tables,
// the spectral scratch, the induced sub-matrices' and the aggregates'
// storage, the crossing tables), and AssignByDistance's affinity, order,
// assignment and search tables. A worker that maps many small matrices —
// placement.Hierarchical's pool maps one per cluster node, the scheduler's
// placement.SlotMapper partitions and maps one per admitted job — so
// allocates little beyond each result, and a result never shares the
// working set.
// The zero value is ready; a Mapper must not be used by two goroutines at
// once.
type Mapper struct {
	// The padding view and the candidate sets. Algorithm 1 groups each
	// level in cand.first.fill and puts the aggregate over level l's groups
	// in cand.first.aggs[l%2]; the portfolio's candidates run in all of
	// cand.
	partitioner
	flat, next []int // leaf order of the padded entities, double-buffered
	match      distanceSet
}

// MapMatrix runs the core of Algorithm 1 (lines 2–8): oversubscription
// management, bottom-up affinity grouping with matrix aggregation, and the
// final matching of the group hierarchy to the tree. It maps every entity of
// m to a leaf of the tree. Control-thread extension (line 1) is layered on
// top by Map, which knows about the ORWL runtime.
//
// The matrix may have any order: it is padded internally with zero-volume
// virtual entities up to the number of (virtual) leaves, and the padding is
// stripped from the result.
func MapMatrix(tree *Tree, m *comm.Matrix, opt Options) (*Mapping, error) {
	return new(Mapper).mapMatrix(tree, m)
}

// mapMatrix is MapMatrix in the mapper's working set.
func (w *Mapper) mapMatrix(tree *Tree, m *comm.Matrix) (*Mapping, error) {
	p := m.Order()
	if p == 0 {
		return &Mapping{VirtualArity: 1}, nil
	}

	// manage_oversubscription (line 2): if there are more processes than
	// leaves, add a virtual level so that every process obtains a slot.
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

	// Pad the matrix with zero-communication entities so that its order
	// equals the number of leaves; this keeps every level's group size
	// exact, as the algorithm assumes. Nothing writes the padded matrix, so
	// a view sharing m's rows serves.
	mat := m
	if p < work.Leaves() {
		mat = must(m.PadView(storage(&w.pad), work.Leaves()))
	}

	// Lines 3–7: group from the leaves up, aggregating after each level.
	// Every group at a level has the level's arity, so each entity of the
	// working matrix covers span padded entities: entity i stands for
	// flat[i*span : (i+1)*span], in leaf order.
	n := mat.Order()
	flat, next := grow(w.flat, n), grow(w.next, n)
	for i := range flat {
		flat[i] = i
	}
	span := 1
	levels := make([][][]int, 0, work.Depth()-1)
	for depth := work.Depth() - 1; depth >= 1; depth-- {
		arity := work.Arity(depth - 1)
		groups := groupProcesses(mat, arity, refinePasses(mat.Order()), &w.cand.first.fill)
		levels = append(levels, groups)
		q := 0
		for _, g := range groups {
			for _, e := range g {
				q += copy(next[q:], flat[e*span:(e+1)*span])
			}
		}
		flat, next = next, flat
		span *= arity
		if depth == 1 {
			break // the root's aggregate is never read
		}
		mat = must(mat.AggregateIn(storage(&w.cand.first.aggs[len(levels)%2]), groups))
	}
	w.flat, w.next = flat, next

	// MapGroups (line 8): after the loop a single group remains; its
	// left-to-right order is exactly the leaf order of the tree, because
	// each group of size `arity` fills one subtree.
	if span != n {
		return nil, fmt.Errorf("treematch: internal error: %d root groups", n/span)
	}
	res := &Mapping{
		Assignment:   make([]int, p),
		Slot:         make([]int, p),
		VirtualArity: virtual,
		Levels:       levels,
	}
	for pos, entity := range flat {
		if entity < p { // discard padding
			res.Assignment[entity] = pos / virtual
			res.Slot[entity] = pos % virtual
		}
	}
	return res, nil
}

// Cost returns the hop-weighted communication cost of an assignment: the sum
// over all entity pairs of their communication volume multiplied by the tree
// distance between their leaves. Lower is better; zero means all
// communication stays on single leaves.
func Cost(tree *Tree, m *comm.Matrix, assignment []int) float64 {
	return DistanceCost(tree.distanceMatrix(), m, assignment)
}

// RoundRobin returns the trivial assignment entity i → leaf i mod Leaves(),
// the baseline TreeMatch is compared against.
func RoundRobin(tree *Tree, order int) []int {
	a := make([]int, order)
	for i := range a {
		a[i] = i % tree.Leaves()
	}
	return a
}
