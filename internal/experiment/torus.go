package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// A13: torus halo exchange. A routed torus prices communication by hop
// distance along dimension-order routes, so where each application block
// lands on the grid matters: a layout that keeps logically adjacent blocks
// on physically adjacent nodes pays one hop per halo, a scrambled layout
// pays the torus diameter. The scenario scrambles the blocks' logical grid
// cells with a coprime stride, so the positional group→node order (the
// balanced-tree model's only option on a shaped fabric) inherits the
// scramble, and compares three arms: the routed distance matcher with its
// space-filling-curve seed, the positional order, and the affinity-blind
// round-robin dealer.

// TorusConfig parameterizes one torus halo-exchange run.
type TorusConfig struct {
	// Dims is the torus shape, every dimension at least 2 and at least 4
	// cells in all. The platform has one cluster node per cell.
	Dims []int
	// CoresPerNode (at least 2, so the intra-block stencil exists) and
	// CoresPerSocket shape each member machine.
	CoresPerNode, CoresPerSocket int
	// Iters is the iteration count.
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
	// Seed drives the simulated OS scheduler.
	Seed int64
}

// The per-iteration volumes of the torus halo exchange.
const (
	// torusBlockBytes is each task's working set.
	torusBlockBytes = 1 << 20
	// torusHaloBytes is the volume exchanged between grid neighbours inside
	// a node-sized block: the heavy coupling that makes the blocks the
	// min-cut partition groups, and the traffic an affinity-blind dealer
	// pays over the fabric when it splits a block across nodes.
	torusHaloBytes = 1 << 20
	// torusWireBytes is the volume between slot-aligned tasks of logically
	// adjacent blocks: the traffic whose hop count the block layout decides.
	torusWireBytes = 96 << 10
)

// torusPerm is the deterministic block→cell shuffle (Fisher–Yates over a
// self-contained xorshift generator, so the layout is bit-stable across
// runs and toolchains). Seed 0 shuffles as seed 1; negative seeds return
// the identity.
func torusPerm(cells int, seed int64) []int {
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	if seed < 0 {
		return perm
	}
	seed = max(seed, 1)
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

// scenario builds the torus scenario: one member machine per torus cell,
// NIC-class links on every torus edge, and the halo exchange on the shared
// node-block workload (see blockStencil); block b sits on the logical grid
// cell the Scramble shuffle deals it. Beyond its block's grid, task slot of
// block b exchanges torusWireBytes with task slot of every logically
// adjacent block (±1 per torus dimension of the blocks' scrambled cells,
// wrapping).
func (c TorusConfig) scenario() (scenario, error) {
	cells := 1
	dims := make([]string, len(c.Dims))
	for i, d := range c.Dims {
		if d < 2 {
			return scenario{}, fmt.Errorf("experiment: torus dimension %d below 2 (dims %v)", d, c.Dims)
		}
		cells *= d
		dims[i] = strconv.Itoa(d)
	}
	node, err := nodeSpec(c.CoresPerNode, c.CoresPerSocket)
	switch {
	case cells < 4:
		return scenario{}, fmt.Errorf("experiment: torus scenario needs at least 4 cells, got %d", cells)
	case c.CoresPerNode < 2:
		return scenario{}, fmt.Errorf("experiment: torus nodes need at least 2 cores, got %d", c.CoresPerNode)
	case err != nil:
		return scenario{}, err
	}
	// cellOf scrambles block → logical cell; blockAt inverts it.
	cellOf := torusPerm(cells, c.Scramble)
	blockAt := make([]int, cells)
	for b, cell := range cellOf {
		blockAt[cell] = b
	}
	return scenario{
		spec:  fmt.Sprintf("torus:%s %s", strings.Join(dims, "x"), node),
		attrs: topology.DefaultAttrs(),
		stencil: blockStencil{
			sizes: uniformBlocks(cells, c.CoresPerNode),
			iters: c.Iters, blockBytes: torusBlockBytes, haloBytes: torusHaloBytes,
			extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
				var reads []*orwl.Handle
				for _, cell := range torusNeighbors(c.Dims, cellOf[b]) {
					reads = append(reads, task.NewHandleVol(at(blockAt[cell], slot), orwl.Read, torusWireBytes, 0))
				}
				return reads, nil
			},
		},
		seed: c.Seed,
	}, nil
}

// TorusCluster builds the simulated torus platform of a configuration.
func TorusCluster(cfg TorusConfig) (*numasim.Platform, error) { return platformOf(cfg.scenario()) }

// torusArms are the placement arms of the torus ablation in report order.
var torusArms = []arm[fabricArm]{
	// The default hierarchical pipeline: on a shaped fabric the group→node
	// matching runs through the routed distance model with the
	// space-filling-curve seed. The speedup base.
	{"sfc", fabricArm{policy: placement.Hierarchical{}}},
	// The positional group→node order, all a balanced-tree matcher can do
	// on a shaped fabric, which admits no balanced abstract tree. It
	// inherits the scramble.
	{"tree-matched", fabricArm{policy: placement.Hierarchical{NoFabricMatch: true}}},
	// The affinity-blind round-robin dealer.
	{"rr", fabricArm{policy: placement.RoundRobinNodes{}}},
}

// TorusResult reports one torus halo-exchange run.
type TorusResult struct {
	Seconds float64
	// WallSeconds is the real time the placement call took, declaring the
	// contention the placement implies included. It reaches no row and no
	// bench artifact; the benchmark module's fabric-stencil workload reads
	// it as experiment.torus_place_ms.
	WallSeconds float64
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

// RunTorus executes the torus halo-exchange workload under one placement
// mode ("sfc", "tree-matched" or "rr"; see torusArms).
func RunTorus(mode string, cfg TorusConfig) (TorusResult, error) {
	s, err := cfg.scenario()
	run, err := s.runMode("torus", torusArms, mode, err)
	return TorusResult{Seconds: run.seconds, WallSeconds: run.placeWall}, err
}

// AblationTorus (A13) compares the placement arms on the torus halo
// exchange: routed distance matching with the space-filling-curve seed,
// the positional group→node order, and round-robin.
func AblationTorus(cfg Config) ([]AblationRow, error) { return torusRows(torusConfigFrom(cfg)) }

// torusRows runs the torus ablation on one shape.
func torusRows(cfg TorusConfig) ([]AblationRow, error) {
	s, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	detail := fmt.Sprintf("torus %v x %d cores, scramble %d", cfg.Dims, cfg.CoresPerNode, cfg.Scramble)
	return s.sweep("torus", torusArms, func(fabricArm, programRun) string { return detail })
}

// torusConfigFrom derives the torus configuration from the common ablation
// Config: a 4x4 torus with single-socket nodes scaled so the total core
// count comes close to cfg.Cores (minimum 2 cores per node so the
// intra-block stencil exists), 8 iterations, scramble 1.
func torusConfigFrom(cfg Config) TorusConfig {
	cfg = cfg.withDefaults()
	per := max(cfg.Cores/16, 2)
	return TorusConfig{
		Dims:           []int{4, 4},
		CoresPerNode:   per,
		CoresPerSocket: per,
		Iters:          8,
		Scramble:       1,
		Seed:           cfg.Seed,
	}
}
