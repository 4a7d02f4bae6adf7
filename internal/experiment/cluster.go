package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
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
	// Nodes is the number of cluster machines (default 4, minimum 2 for the
	// scenario to exercise the fabric).
	Nodes int
	// CoresPerNode and CoresPerSocket shape each machine (defaults 12 and
	// 6): every node is CoresPerNode/CoresPerSocket sockets with a shared
	// L3 and one NUMA node per socket.
	CoresPerNode, CoresPerSocket int
	// Iters is the number of stencil iterations (default 30).
	Iters int
	// BlockBytes is each task's working set (default 2 MiB): the block it
	// sweeps per iteration and drags along when migrated.
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged with each edge
	// neighbour (default 256 KiB).
	HaloBytes float64
	// Fabric overrides the interconnect parameters; zero fields keep the
	// 10GbE-class defaults.
	Fabric numasim.Fabric
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 12
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 6
	}
	if c.Iters == 0 {
		c.Iters = 30
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 2 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 256 << 10
	}
	return c
}

// Validate rejects configurations the cluster pipeline cannot run.
func (c ClusterConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Nodes < 2:
		return fmt.Errorf("experiment: cluster needs at least 2 nodes, got %d", d.Nodes)
	case d.CoresPerNode < 1 || d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.CoresPerNode%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: %d cores per node not divisible into sockets of %d", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0:
		return fmt.Errorf("experiment: negative block or halo size")
	}
	return nil
}

// Cluster builds the simulated cluster for a configuration via the
// spec-driven platform path. A Fabric.Racks override splits the nodes across
// that many top-of-rack switches.
func Cluster(cfg ClusterConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	nodeSpec := fmt.Sprintf("pack:%d l3:1 core:%d pu:1",
		cfg.CoresPerNode/cfg.CoresPerSocket, cfg.CoresPerSocket)
	spec := fmt.Sprintf("cluster:%d %s", cfg.Nodes, nodeSpec)
	if r := cfg.Fabric.Racks; r > 1 {
		if cfg.Nodes%r != 0 {
			return nil, fmt.Errorf("experiment: %d cluster nodes not divisible across %d racks", cfg.Nodes, r)
		}
		spec = fmt.Sprintf("rack:%d cluster:%d %s", r, cfg.Nodes/r, nodeSpec)
	}
	return numasim.NewPlatformAttrs(spec, cfg.Fabric.Defaults(), numasim.Config{})
}

// clusterArm is what one arm of the cluster ablation swaps: the placement
// policy and, for the fabric-free reference, the machine itself.
type clusterArm struct {
	policy placement.Policy
	// oneMachine runs the same total core count as one shared-memory
	// machine: no fabric, the upper bound distribution has to pay for.
	oneMachine bool
}

// clusterArms are the arms of the cluster ablation in report order: the
// hierarchical two-level policy first (the speedup base), then flat
// TreeMatch on the whole cluster tree, round-robin across nodes, and the
// fabric-free single machine.
var clusterArms = []arm[clusterArm]{
	{"hierarchical", clusterArm{policy: placement.Hierarchical{}}},
	{"flat", clusterArm{policy: placement.TreeMatch{}}},
	{"rr-nodes", clusterArm{policy: placement.RoundRobinNodes{}}},
	{"bignode", clusterArm{policy: placement.TreeMatch{}, oneMachine: true}},
}

// clusterStencil builds the multi-node block stencil on a runtime: one task
// per core, arranged in the most square bx×by grid. Task
// (x,y) writes its own block location and reads the block of each edge
// neighbour every iteration, so every task pair cut apart by the node
// partition sends its halo volume over the fabric once per iteration. All
// volumes are whole bytes, so the run is bit-deterministic regardless of
// goroutine interleaving (the phase-shift scenario's discipline).
func clusterStencil(cfg ClusterConfig) func(*orwl.Runtime) error {
	return func(rt *orwl.Runtime) error {
		n := cfg.Nodes * cfg.CoresPerNode
		bx, by := BlockGrid(n)
		id := func(x, y int) int { return y*bx + x }
		locs := make([]*orwl.Location, n)
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				locs[id(x, y)] = rt.NewLocation(fmt.Sprintf("blk(%d,%d)", x, y), cfg.BlockBytes)
			}
		}
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				task := rt.AddTask(fmt.Sprintf("b(%d,%d)", x, y), nil)
				var halos []*orwl.Handle
				for _, d := range [][2]int{{0, -1}, {0, 1}, {1, 0}, {-1, 0}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= bx || ny < 0 || ny >= by {
						continue
					}
					halos = append(halos, task.NewHandleVol(locs[id(nx, ny)], orwl.Read, cfg.HaloBytes, 0))
				}
				w := task.NewHandleVol(locs[id(x, y)], orwl.Write, cfg.HaloBytes, 1)
				stencilTask(task, halos, w, cfg.Iters, nil)
			}
		}
		return nil
	}
}

// runCluster executes the multi-node stencil under one placement arm (see
// clusterArms); cfg carries its defaults already.
func runCluster(a clusterArm, cfg ClusterConfig) (Result, error) {
	tasks := cfg.Nodes * cfg.CoresPerNode
	var mach *numasim.Machine
	if a.oneMachine {
		m, err := machineFromSpec(fmt.Sprintf("pack:%d l3:1 core:%d pu:1", tasks/cfg.CoresPerSocket, cfg.CoresPerSocket))
		if err != nil {
			return Result{}, err
		}
		mach = m
	} else {
		c, err := Cluster(cfg)
		if err != nil {
			return Result{}, err
		}
		mach = c.Machine()
	}
	run, err := runStencil(mach, cfg.Seed, clusterStencil(cfg), a.policy, nil)
	if err != nil {
		return Result{}, err
	}
	return run.result(tasks, tasks), nil
}

// AblationCluster (A9) compares the placement arms on the multi-node
// stencil.
func AblationCluster(cfg ClusterConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return sweep("cluster", clusterArms,
		func(a clusterArm) (Result, error) { return runCluster(a, cfg) },
		func(a arm[clusterArm], res Result) AblationRow {
			detail := fmt.Sprintf("%d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode)
			if a.policy.oneMachine {
				detail = fmt.Sprintf("1 machine x %d cores", cfg.Nodes*cfg.CoresPerNode)
			}
			return AblationRow{Seconds: res.Seconds, Detail: detail}
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
