package treematch

import (
	"fmt"

	"repro/internal/comm"
)

// AssignClassed maps each entity of the matrix (in hierarchical placement:
// each partition group) to a distinct leaf of the tree (a cluster node of
// the fabric tree), minimizing the hop-weighted communication cost (Cost)
// subject to a class constraint: entity g may only occupy leaves with
// leafClass[leaf] == entityClass[g]. This is the capacity-aware group→node
// matching of heterogeneous platforms — a group sized for an 8-core node
// must land on an 8-core node, and within that constraint groups exchanging
// heavy residual volume should share a rack (and a pod).
//
// It is AssignByDistance under the tree's hop-distance model; the search,
// its limits and its validation are documented there.
func AssignClassed(tree *Tree, m *comm.Matrix, entityClass, leafClass []int) ([]int, error) {
	if p := m.Order(); p != tree.Leaves() {
		return nil, fmt.Errorf("treematch: AssignClassed maps %d entities onto %d leaves", p, tree.Leaves())
	}
	return AssignByDistance(tree.distanceMatrix(), m, entityClass, leafClass)
}
