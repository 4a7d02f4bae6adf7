package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// The heterogeneous-platform experiment (A11) exercises the spec-driven
// Platform API end to end: a three-switch-level fabric (NICs under
// top-of-rack switches under pod switches under the core switch) whose racks
// each hold one big and one small node — mixed node generations, the shape
// real clusters grow into. The workload is a pod-skewed stencil: heavy
// traffic inside node-capacity-sized blocks plus a medium pair exchange
// between one big and one small block, paired so that the positional
// (identity) group→node assignment sends every pair across the pod
// boundary, while a capacity-class-constrained fabric matching can co-locate
// each pair under one top-of-rack switch.
//
// Three placement arms isolate the two new mechanisms:
//
//   - aware: capacity-weighted partition (an 8-core node receives an 8-task
//     block, a 4-core node a 4-task block) plus the class-constrained
//     fabric matching — pairs share racks, nobody is oversubscribed;
//   - capacity-blind: equal shares ceil(p/k) regardless of node size — the
//     partition must cut the heavy blocks and the small nodes oversubscribe;
//   - depth-blind: capacity-weighted but no fabric matching — every pair
//     exchange climbs to the pod uplinks, the scarcest links of the fabric.
//
// The acceptance property, asserted in tests and at bench time, is
// aware < capacity-blind < depth-blind.

// HeteroConfig parameterizes one heterogeneous pod-tier stencil run.
type HeteroConfig struct {
	// Pods is the number of pod switches (default 2, minimum 2 so the pod
	// uplinks exist).
	Pods int
	// RacksPerPod is the number of top-of-rack switches per pod (default 2).
	RacksPerPod int
	// BigCores and SmallCores shape the two node generations of each rack
	// (defaults 8 and 4); each rack holds one node of either kind.
	BigCores, SmallCores int
	// CoresPerSocket shapes the sockets of both node kinds (default 4).
	CoresPerSocket int
	// Iters is the number of stencil iterations (default 20).
	Iters int
	// BlockBytes is each task's working set (default 2 MiB).
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged between grid
	// neighbours inside a node-sized block (default 512 KiB — heavy enough
	// that a capacity-blind equal split, which must cut the big blocks,
	// pays visibly for every severed grid edge).
	HaloBytes float64
	// PairBytes is the per-iteration volume between slot-aligned tasks of
	// partnered big/small blocks (default 96 KiB): the traffic whose rack-
	// vs-pod placement the ablation isolates. Unlike the rack scenario's
	// one-edge-per-task pairing, a small task here carries two pair edges
	// (both aligned big slots read it), so the per-edge volume must stay
	// below half a halo edge or the min-cut partition would trade grid
	// edges inside a big block for pair edges and split the blocks.
	PairBytes float64
	// LinkBytes is the light connectivity volume between consecutive blocks
	// (default 32 KiB).
	LinkBytes float64
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c HeteroConfig) withDefaults() HeteroConfig {
	if c.Pods == 0 {
		c.Pods = 2
	}
	if c.RacksPerPod == 0 {
		c.RacksPerPod = 2
	}
	if c.BigCores == 0 {
		c.BigCores = 8
	}
	if c.SmallCores == 0 {
		c.SmallCores = 4
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 4
	}
	if c.Iters == 0 {
		c.Iters = 20
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 2 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 512 << 10
	}
	if c.PairBytes == 0 {
		c.PairBytes = 96 << 10
	}
	if c.LinkBytes == 0 {
		c.LinkBytes = 32 << 10
	}
	return c
}

// Validate rejects configurations the hetero pipeline cannot run.
func (c HeteroConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Pods < 2:
		return fmt.Errorf("experiment: hetero scenario needs at least 2 pods, got %d", d.Pods)
	case d.Pods%2 != 0:
		return fmt.Errorf("experiment: hetero scenario needs an even pod count so every pair can cross pods, got %d", d.Pods)
	case d.RacksPerPod < 1:
		return fmt.Errorf("experiment: invalid racks per pod %d", d.RacksPerPod)
	case d.BigCores <= d.SmallCores:
		return fmt.Errorf("experiment: big nodes (%d cores) must exceed small nodes (%d cores)", d.BigCores, d.SmallCores)
	case d.SmallCores < 1:
		return fmt.Errorf("experiment: invalid small node size %d", d.SmallCores)
	case d.BigCores%d.CoresPerSocket != 0 || d.SmallCores%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: node sizes %d/%d not divisible into sockets of %d", d.BigCores, d.SmallCores, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0 || d.PairBytes < 0 || d.LinkBytes < 0:
		return fmt.Errorf("experiment: negative volume in hetero config")
	}
	return nil
}

// HeteroPlatformSpec renders the platform spec of the configuration: a pod
// tier, a rack tier, and two nodes per rack cycling through the big and
// small member machines.
func HeteroPlatformSpec(cfg HeteroConfig) string {
	cfg = cfg.withDefaults()
	big := fmt.Sprintf("pack:%d l3:1 core:%d pu:1", cfg.BigCores/cfg.CoresPerSocket, cfg.CoresPerSocket)
	small := fmt.Sprintf("pack:%d l3:1 core:%d pu:1", cfg.SmallCores/cfg.CoresPerSocket, cfg.CoresPerSocket)
	return fmt.Sprintf("pod:%d rack:%d node:2{%s | %s}", cfg.Pods, cfg.RacksPerPod, big, small)
}

// HeteroPlatform builds the simulated heterogeneous pod-tier platform. Like
// the rack scenario, the uplinks default to oversubscribed single trunks of
// NIC-class bandwidth — every stream leaving a rack (or a pod) funnels
// through one 10GbE-class link — so climbing the fabric pays in bandwidth
// as well as latency.
func HeteroPlatform(cfg HeteroConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	def := topology.DefaultAttrs()
	def.UplinkBandwidth = def.NetBandwidth
	def.PodUplinkBandwidth = def.NetBandwidth
	return numasim.NewPlatformAttrs(HeteroPlatformSpec(cfg), def, numasim.Config{})
}

// heteroArms are the placement arms of the hetero ablation in report order:
// the fully aware policy first (the speedup base), then the capacity-blind
// and depth-blind variants.
var heteroArms = []arm[placement.Policy]{
	{"aware", placement.Hierarchical{}},
	{"capacity-blind", placement.Hierarchical{CapacityBlind: true}},
	{"depth-blind", placement.Hierarchical{NoFabricMatch: true}},
}

// heteroBlockSizes returns the per-node block sizes of the scenario, in
// fused node order (big, small, big, small, ...).
func heteroBlockSizes(cfg HeteroConfig) []int {
	cfg = cfg.withDefaults()
	nodes := cfg.Pods * cfg.RacksPerPod * 2
	sizes := make([]int, nodes)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = cfg.BigCores
		} else {
			sizes[i] = cfg.SmallCores
		}
	}
	return sizes
}

// heteroPairOf returns the partner block of each block: big block of rank i
// pairs with the small block of rank i + nbig/2 (mod nbig), so that under
// the positional identity assignment every pair straddles the pod boundary,
// while each rack's big+small capacity profile admits a rack-local matching.
func heteroPairOf(sizes []int) []int {
	nbig := len(sizes) / 2
	pair := make([]int, len(sizes))
	for i := 0; i < nbig; i++ {
		big := 2 * i
		small := 2*((i+nbig/2)%nbig) + 1
		pair[big] = small
		pair[small] = big
	}
	return pair
}

// heteroStencil is the pod-skewed heterogeneous stencil on the shared
// node-block workload (see blockStencil), its blocks sized to the node
// capacities. Beyond its block's grid, task s of block b
//
//   - exchanges PairBytes with the slot-aligned task of the partner block
//     (big slot s reads small slot s mod |small|; the pod-decisive medium
//     traffic),
//   - and, for slot 0 only, exchanges LinkBytes with the neighbouring
//     blocks (light connectivity so the affinity graph is one component).
func heteroStencil(cfg HeteroConfig) blockStencil {
	sizes := heteroBlockSizes(cfg)
	pair := heteroPairOf(sizes)
	return blockStencil{
		sizes: sizes, iters: cfg.Iters, blockBytes: cfg.BlockBytes, haloBytes: cfg.HaloBytes,
		extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
			reads := []*orwl.Handle{task.NewHandleVol(at(pair[b], slot%sizes[pair[b]]), orwl.Read, cfg.PairBytes, 0)}
			return append(reads, linkReads(task, b, slot, len(sizes), cfg.LinkBytes, at)...), nil
		},
	}
}

// RunHetero executes the heterogeneous pod-tier stencil under one placement
// mode (see heteroArms) and returns its simulated processing time.
func RunHetero(mode string, cfg HeteroConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	pol, err := armPolicy("hetero", heteroArms, mode)
	if err != nil {
		return Result{}, err
	}
	return runHetero(pol, cfg.withDefaults())
}

func runHetero(pol placement.Policy, cfg HeteroConfig) (Result, error) {
	platform, err := HeteroPlatform(cfg)
	if err != nil {
		return Result{}, err
	}
	mach := platform.Machine()
	run, err := runStencil(mach, cfg.Seed, heteroStencil(cfg).build, pol, nil)
	if err != nil {
		return Result{}, err
	}
	return run.result(mach.Topology().NumCores(), platform.Nodes()), nil
}

// AblationHetero (A11) compares the placement arms on the heterogeneous
// pod-tier stencil.
func AblationHetero(cfg HeteroConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	detail := fmt.Sprintf("%d pods x %d racks x (%d+%d) cores", cfg.Pods, cfg.RacksPerPod, cfg.BigCores, cfg.SmallCores)
	return sweep("hetero", heteroArms,
		func(pol placement.Policy) (Result, error) { return runHetero(pol, cfg) },
		func(_ arm[placement.Policy], res Result) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: detail}
		})
}

// HeteroConfigFrom derives the hetero configuration from the common ablation
// Config: 2 pods of fixed big+small racks, the rack count scaled so the
// total core count comes close to cfg.Cores (each rack carries
// BigCores+SmallCores = 12 cores; the Detail column of every A11 row prints
// the effective shape). The node shapes stay fixed because the scenario's
// volume ratios are calibrated per node; scale comes from more racks per
// pod, which is also how real pods grow.
func HeteroConfigFrom(cfg Config) HeteroConfig {
	cfg = cfg.withDefaults()
	perPod := cfg.Cores / 24
	if perPod < 1 {
		perPod = 1
	}
	return HeteroConfig{
		Pods:        2,
		RacksPerPod: perPod,
		Seed:        cfg.Seed,
	}
}
