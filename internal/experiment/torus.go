package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
)

// A13: torus halo exchange. A routed torus prices communication by hop
// distance along dimension-order routes, so where each application block
// lands on the grid matters: a layout that keeps logically adjacent blocks
// on physically adjacent nodes pays one hop per halo, a scrambled layout
// pays the torus diameter. The scenario scrambles the blocks' logical grid
// cells with a coprime stride, so the positional group→node order (the
// balanced-tree model's only option on a shaped fabric) inherits the
// scramble, and compares three arms: the routed distance matcher with its
// space-filling-curve seed, the tree-only matcher (which skips shaped
// fabrics), and the affinity-blind round-robin dealer.

// TorusConfig parameterizes one torus halo-exchange run.
type TorusConfig struct {
	// Dims is the torus shape, every dimension at least 2 (default 4x4).
	// The platform has one cluster node per cell.
	Dims []int
	// CoresPerNode and CoresPerSocket shape each member machine (defaults
	// 4 and 4: single-socket nodes).
	CoresPerNode, CoresPerSocket int
	// Iters is the iteration count (default 8).
	Iters int
	// Scramble seeds the deterministic shuffle that assigns block b its
	// logical grid cell. A shuffle (rather than a coprime stride) is
	// required: any affine permutation of a torus keeps much of its
	// adjacency — on a 4x4 grid, stride 5 maps every neighbour pair to
	// another neighbour pair — and the positional group→node order would
	// accidentally stay near-optimal. 0 picks 1; negative disables the
	// scramble (identity layout — diagnostics only, every arm then starts
	// adjacency-optimal).
	Scramble int64
	// BlockBytes is each task's working set (default 1 MiB).
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged between grid
	// neighbours inside a node-sized block (default 1 MiB): the heavy
	// coupling that makes the blocks the min-cut partition groups, and the
	// traffic an affinity-blind dealer pays over the fabric when it splits
	// a block across nodes.
	HaloBytes float64
	// WireBytes is the per-iteration volume between slot-aligned tasks of
	// logically adjacent blocks (default 96 KiB): the traffic whose hop
	// count the block layout decides.
	WireBytes float64
	// Fabric overrides the interconnect parameters; zero fields keep the
	// defaults (10GbE-class links on every torus edge).
	Fabric numasim.Fabric
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c TorusConfig) withDefaults() TorusConfig {
	if len(c.Dims) == 0 {
		c.Dims = []int{4, 4}
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 4
	}
	if c.Iters == 0 {
		c.Iters = 8
	}
	if c.Scramble == 0 {
		c.Scramble = 1
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 1 << 20
	}
	if c.WireBytes == 0 {
		c.WireBytes = 96 << 10
	}
	return c
}

func (c TorusConfig) cells() int {
	n := 1
	for _, d := range c.Dims {
		n *= d
	}
	return n
}

// torusPerm is the deterministic block→cell shuffle (Fisher–Yates over a
// self-contained xorshift generator, so the layout is bit-stable across
// runs and toolchains). Negative seeds return the identity.
func torusPerm(cells int, seed int64) []int {
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	if seed < 0 {
		return perm
	}
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := cells - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Validate rejects configurations the torus pipeline cannot run.
func (c TorusConfig) Validate() error {
	d := c.withDefaults()
	cells := d.cells()
	switch {
	case len(d.Dims) == 0:
		return fmt.Errorf("experiment: torus scenario needs at least one dimension")
	case cells < 4:
		return fmt.Errorf("experiment: torus scenario needs at least 4 cells, got %d", cells)
	case d.CoresPerNode < 2 || d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.CoresPerNode%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: %d cores per node not divisible into sockets of %d", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0 || d.WireBytes < 0:
		return fmt.Errorf("experiment: negative volume in torus config")
	}
	for _, dim := range d.Dims {
		if dim < 2 {
			return fmt.Errorf("experiment: torus dimension %d below 2 (dims %v)", dim, d.Dims)
		}
	}
	return nil
}

// TorusCluster builds the simulated torus platform for a configuration via
// the spec-driven platform path: one single-switch member machine per torus
// cell, NIC-class links on every torus edge.
func TorusCluster(cfg TorusConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	dims := ""
	for i, d := range cfg.Dims {
		if i > 0 {
			dims += "x"
		}
		dims += fmt.Sprint(d)
	}
	spec := fmt.Sprintf("torus:%s pack:%d l3:1 core:%d pu:1",
		dims, cfg.CoresPerNode/cfg.CoresPerSocket, cfg.CoresPerSocket)
	return numasim.NewPlatformAttrs(spec, cfg.Fabric.Defaults(), numasim.Config{})
}

// torusArms are the placement arms of the torus ablation in report order.
var torusArms = []arm[placement.Policy]{
	// The default hierarchical pipeline: on a shaped fabric the group→node
	// matching runs through the routed distance model with the
	// space-filling-curve seed (and the partitioner's portfolio gains the
	// curve-chain candidate). The speedup base.
	{"sfc", placement.Hierarchical{}},
	// The balanced-tree model of earlier revisions: a shaped fabric admits
	// no balanced abstract tree, so the matching is skipped and the
	// partition keeps the positional group→node order — which inherits the
	// scramble.
	{"tree-matched", placement.Hierarchical{TreeFabric: true}},
	// The affinity-blind round-robin dealer.
	{"rr", placement.RoundRobinNodes{}},
}

// TorusResult reports one torus halo-exchange run.
type TorusResult struct {
	Mode    string
	Seconds float64
	// WallSeconds is the real time the placement call took. It reaches no
	// row and no bench artifact; the benchmark module's fabric-stencil
	// workload reads it as experiment.torus_place_ms.
	WallSeconds float64
}

// String renders a one-line summary.
func (r TorusResult) String() string {
	return fmt.Sprintf("%-13s time=%8.3fs place=%6.4fs wall", r.Mode, r.Seconds, r.WallSeconds)
}

// torusNeighbors returns the row-major cell ids adjacent to cell on the
// grid (±1 per dimension, wrapping). A dimension of length 2 has a single
// neighbor in that direction (the wrap coincides), deduplicated here.
func torusNeighbors(dims []int, cell int) []int {
	coords := make([]int, len(dims))
	c := cell
	for k := len(dims) - 1; k >= 0; k-- {
		coords[k] = c % dims[k]
		c /= dims[k]
	}
	var out []int
	seen := map[int]bool{cell: true}
	for k := range dims {
		for _, d := range []int{1, dims[k] - 1} {
			n := 0
			for j := range dims {
				x := coords[j]
				if j == k {
					x = (x + d) % dims[j]
				}
				n = n*dims[j] + x
			}
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// torusStencil is the torus halo-exchange workload on the shared node-block
// workload (see blockStencil); block b sits on the logical grid cell the
// Scramble shuffle deals it. Beyond its block's grid, task slot of block b
// exchanges WireBytes with task slot of every logically adjacent block (±1
// per torus dimension of the blocks' scrambled cells, wrapping).
func torusStencil(cfg TorusConfig) blockStencil {
	blocks := cfg.cells()
	// cellOf scrambles block → logical cell; blockAt inverts it.
	cellOf := torusPerm(blocks, cfg.Scramble)
	blockAt := make([]int, blocks)
	for b, cell := range cellOf {
		blockAt[cell] = b
	}
	return blockStencil{
		sizes: uniformBlocks(blocks, cfg.CoresPerNode),
		iters: cfg.Iters, blockBytes: cfg.BlockBytes, haloBytes: cfg.HaloBytes,
		extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
			var reads []*orwl.Handle
			for _, cell := range torusNeighbors(cfg.Dims, cellOf[b]) {
				reads = append(reads, task.NewHandleVol(at(blockAt[cell], slot), orwl.Read, cfg.WireBytes, 0))
			}
			return reads, nil
		},
	}
}

// RunTorus executes the torus halo-exchange workload under one placement
// mode ("sfc", "tree-matched" or "rr"; see torusArms).
func RunTorus(mode string, cfg TorusConfig) (TorusResult, error) {
	if err := cfg.Validate(); err != nil {
		return TorusResult{}, err
	}
	pol, err := armPolicy("torus", torusArms, mode)
	if err != nil {
		return TorusResult{}, err
	}
	res, err := runTorus(pol, cfg.withDefaults())
	res.Mode = mode
	return res, err
}

func runTorus(pol placement.Policy, cfg TorusConfig) (TorusResult, error) {
	cluster, err := TorusCluster(cfg)
	if err != nil {
		return TorusResult{}, err
	}
	run, err := runStencil(cluster.Machine(), cfg.Seed, torusStencil(cfg).build, pol, nil)
	if err != nil {
		return TorusResult{}, err
	}
	return TorusResult{Seconds: run.seconds, WallSeconds: run.placeWall}, nil
}

// AblationTorus (A13) compares the placement arms on the torus halo
// exchange: routed distance matching with the space-filling-curve seed,
// the balanced-tree-only matcher, and round-robin.
func AblationTorus(cfg TorusConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	detail := fmt.Sprintf("torus %v x %d cores, scramble %d", cfg.Dims, cfg.CoresPerNode, cfg.Scramble)
	return sweep("torus", torusArms,
		func(pol placement.Policy) (TorusResult, error) { return runTorus(pol, cfg) },
		func(_ arm[placement.Policy], res TorusResult) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: detail}
		})
}

// TorusConfigFrom derives the torus configuration from the common ablation
// Config: a 4x4 torus with single-socket nodes scaled so the total core
// count comes close to cfg.Cores (minimum 2 cores per node so the
// intra-block stencil exists).
func TorusConfigFrom(cfg Config) TorusConfig {
	cfg = cfg.withDefaults()
	per := cfg.Cores / 16
	if per < 2 {
		per = 2
	}
	return TorusConfig{
		Dims:           []int{4, 4},
		CoresPerNode:   per,
		CoresPerSocket: per,
		Seed:           cfg.Seed,
	}
}
