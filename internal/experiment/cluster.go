package experiment

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/topology"
)

// The cluster experiment (A9) takes the placement pipeline beyond the single
// SMP of the paper: the LK23 block stencil runs on a simulated multi-machine
// cluster whose nodes are joined by a network fabric, and the hierarchical
// two-level policy — cut-minimizing partition across nodes, then Algorithm 1
// per node — is compared against flat TreeMatch on the whole cluster tree,
// round-robin across nodes, and a fabric-free single machine of the same
// total core count (the price of distribution itself).

// clusterShape is one multi-node stencil run: nodes cluster machines, each
// coresPerNode/coresPerSocket sockets with a shared L3 and one NUMA node per
// socket, and the seed of the simulated OS scheduler.
type clusterShape struct {
	nodes, coresPerNode, coresPerSocket int
	seed                                int64
}

// The fixed workload of the cluster scenario: 30 iterations, each task
// sweeping a 2 MiB block and exchanging 256 KiB with every edge neighbour
// per iteration.
const (
	clusterIters      = 30
	clusterBlockBytes = 2 << 20
	clusterHaloBytes  = 256 << 10
)

// scenario builds the cluster scenario: a flat single-switch fabric of
// nodes machines and one whole-grid stencil — one task per core, arranged in
// the most square bx×by grid, every task reading the block of each edge
// neighbour — so every task pair cut apart by the node partition sends its
// halo volume over the fabric once per iteration.
func (c clusterShape) scenario() (scenario, error) {
	node, err := nodeSpec(c.coresPerNode, c.coresPerSocket)
	if err != nil {
		return scenario{}, err
	}
	tasks := c.nodes * c.coresPerNode
	one, _ := nodeSpec(tasks, c.coresPerSocket) // valid: node's sockets, nodes times
	bx, _ := BlockGrid(tasks)
	return scenario{
		spec:       fmt.Sprintf("cluster:%d %s", c.nodes, node),
		attrs:      topology.DefaultAttrs(),
		oneMachine: one,
		stencil: blockStencil{sizes: []int{tasks}, width: bx, iters: clusterIters,
			blockBytes: clusterBlockBytes, haloBytes: clusterHaloBytes},
		seed: c.seed,
	}, nil
}

// clusterArms are the arms of the cluster ablation in report order: the
// hierarchical two-level policy first (the speedup base), then flat
// TreeMatch on the whole cluster tree, round-robin across nodes, and the
// fabric-free single machine — no fabric, the upper bound distribution has
// to pay for.
var clusterArms = []arm[fabricArm]{
	{"hierarchical", fabricArm{policy: placement.Hierarchical{}}},
	{"flat", fabricArm{policy: placement.TreeMatch{}}},
	{"rr-nodes", fabricArm{policy: placement.RoundRobinNodes{}}},
	{"bignode", fabricArm{policy: placement.TreeMatch{}, oneMachine: true}},
}

// AblationCluster (A9) compares the placement arms on the multi-node
// stencil. The core count splits across 4 nodes (2 when it is too small);
// a core count the node count does not divide is rounded down to nodes ×
// (cores/nodes), and the Detail column of every row prints the effective
// shape.
func AblationCluster(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	nodes := 4
	if cfg.Cores < 16 {
		nodes = 2
	}
	perNode := max(cfg.Cores/nodes, 1)
	perSocket := cfg.CoresPerSocket
	if perSocket > perNode || perNode%perSocket != 0 {
		perSocket = perNode
	}
	return clusterRows(clusterShape{nodes: nodes, coresPerNode: perNode, coresPerSocket: perSocket, seed: cfg.Seed})
}

// clusterRows runs the cluster ablation on one shape.
func clusterRows(c clusterShape) ([]AblationRow, error) {
	s, err := c.scenario()
	if err != nil {
		return nil, err
	}
	return s.sweep("cluster", clusterArms, func(a fabricArm, _ programRun) string {
		if a.oneMachine {
			return fmt.Sprintf("1 machine x %d cores", c.nodes*c.coresPerNode)
		}
		return fmt.Sprintf("%d nodes x %d cores", c.nodes, c.coresPerNode)
	})
}
