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

// ClusterConfig parameterizes one multi-node stencil run.
type ClusterConfig struct {
	// Nodes is the number of cluster machines (minimum 2, so the scenario
	// exercises the fabric).
	Nodes int
	// CoresPerNode and CoresPerSocket shape each machine: every node is
	// CoresPerNode/CoresPerSocket sockets with a shared L3 and one NUMA node
	// per socket.
	CoresPerNode, CoresPerSocket int
	// Seed drives the simulated OS scheduler.
	Seed int64
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
// Nodes machines and one whole-grid stencil — one task per core, arranged in
// the most square bx×by grid, every task reading the block of each edge
// neighbour — so every task pair cut apart by the node partition sends its
// halo volume over the fabric once per iteration.
func (c ClusterConfig) scenario() (scenario, error) {
	if c.Nodes < 2 {
		return scenario{}, fmt.Errorf("experiment: cluster needs at least 2 nodes, got %d", c.Nodes)
	}
	node, err := nodeSpec(c.CoresPerNode, c.CoresPerSocket)
	if err != nil {
		return scenario{}, err
	}
	tasks := c.Nodes * c.CoresPerNode
	one, _ := nodeSpec(tasks, c.CoresPerSocket) // valid: node's sockets, Nodes times
	bx, _ := BlockGrid(tasks)
	return scenario{
		spec:       fmt.Sprintf("cluster:%d %s", c.Nodes, node),
		attrs:      topology.DefaultAttrs(),
		oneMachine: one,
		stencil: blockStencil{sizes: []int{tasks}, width: bx, iters: clusterIters,
			blockBytes: clusterBlockBytes, haloBytes: clusterHaloBytes},
		seed: c.Seed,
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
// stencil.
func AblationCluster(cfg ClusterConfig) ([]AblationRow, error) {
	s, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	return s.sweep("cluster", clusterArms, func(a fabricArm, _ programRun) string {
		if a.oneMachine {
			return fmt.Sprintf("1 machine x %d cores", cfg.Nodes*cfg.CoresPerNode)
		}
		return fmt.Sprintf("%d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode)
	})
}

// ClusterConfigFrom derives the cluster configuration from the common
// ablation Config: the core count splits across 4 nodes (2 when it is too
// small). A core count the node count does not divide is rounded down to
// nodes × (cores/nodes); the Detail column of every A9 row prints the
// effective shape, so the adjustment is visible in the report.
func ClusterConfigFrom(cfg Config) ClusterConfig {
	cfg = cfg.withDefaults()
	nodes := 4
	if cfg.Cores < 16 {
		nodes = 2
	}
	perNode := cfg.Cores / nodes
	if perNode < 1 {
		perNode = 1
	}
	perSocket := cfg.CoresPerSocket
	if perSocket > perNode || perNode%perSocket != 0 {
		perSocket = perNode
	}
	return ClusterConfig{
		Nodes:          nodes,
		CoresPerNode:   perNode,
		CoresPerSocket: perSocket,
		Seed:           cfg.Seed,
	}
}
