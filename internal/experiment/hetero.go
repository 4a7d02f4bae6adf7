package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
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
	// Pods is the number of pod switches (even and at least 2, so the pod
	// uplinks exist and every pair can cross pods).
	Pods int
	// RacksPerPod is the number of top-of-rack switches per pod.
	RacksPerPod int
	// Iters is the number of stencil iterations.
	Iters int
	// Seed drives the simulated OS scheduler.
	Seed int64
}

// The fixed node generations and per-iteration volumes of the hetero
// scenario. Each rack holds one big node (2 sockets of 4 cores) and one
// small node (1 socket of 4 cores).
const (
	heteroBigCores, heteroSmallCores = 8, 4
	heteroNodes                      = "node:2{pack:2 l3:1 core:4 pu:1 | pack:1 l3:1 core:4 pu:1}"
	// heteroBlockBytes is each task's working set.
	heteroBlockBytes = 2 << 20
	// heteroHaloBytes is the volume exchanged between grid neighbours inside
	// a node-sized block — heavy enough that a capacity-blind equal split,
	// which must cut the big blocks, pays visibly for every severed grid
	// edge.
	heteroHaloBytes = 512 << 10
	// heteroPairBytes is the volume between slot-aligned tasks of partnered
	// big/small blocks: the traffic whose rack-vs-pod placement the ablation
	// isolates. Unlike the rack scenario's one-edge-per-task pairing, a small
	// task here carries two pair edges (both aligned big slots read it), so
	// the per-edge volume must stay below half a halo edge or the min-cut
	// partition would trade grid edges inside a big block for pair edges and
	// split the blocks.
	heteroPairBytes = 96 << 10
)

// scenario builds the hetero scenario: a pod tier, a rack tier and two
// nodes per rack cycling through the big and small member machines, and the
// pod-skewed stencil on the shared node-block workload (see blockStencil),
// its blocks sized to the node capacities. Beyond its block's grid, task s
// of block b
//
//   - exchanges heteroPairBytes with the slot-aligned task of the partner
//     block (big slot s reads small slot s mod |small|; the pod-decisive
//     medium traffic),
//   - and, for slot 0 only, exchanges linkBytes with the neighbouring
//     blocks (light connectivity so the affinity graph is one component).
func (c HeteroConfig) scenario() (scenario, error) {
	switch {
	case c.Pods < 2 || c.Pods%2 != 0:
		return scenario{}, fmt.Errorf("experiment: hetero scenario needs an even pod count of at least 2 so every pair can cross pods, got %d", c.Pods)
	case c.RacksPerPod < 1:
		return scenario{}, fmt.Errorf("experiment: invalid racks per pod %d", c.RacksPerPod)
	}
	// Block sizes in fused node order: big, small, big, small, ...
	sizes := make([]int, c.Pods*c.RacksPerPod*2)
	for i := range sizes {
		sizes[i] = heteroBigCores
		if i%2 == 1 {
			sizes[i] = heteroSmallCores
		}
	}
	pair := heteroPairOf(sizes)
	return scenario{
		spec:  fmt.Sprintf("pod:%d rack:%d %s", c.Pods, c.RacksPerPod, heteroNodes),
		attrs: oversubscribed(),
		stencil: blockStencil{
			sizes: sizes, iters: c.Iters, blockBytes: heteroBlockBytes, haloBytes: heteroHaloBytes,
			extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
				reads := []*orwl.Handle{task.NewHandleVol(at(pair[b], slot%sizes[pair[b]]), orwl.Read, heteroPairBytes, 0)}
				return append(reads, linkReads(task, b, slot, len(sizes), at)...), nil
			},
		},
		seed: c.Seed,
	}, nil
}

// HeteroPlatform builds the simulated heterogeneous pod-tier platform of a
// configuration.
func HeteroPlatform(cfg HeteroConfig) (*numasim.Platform, error) { return platformOf(cfg.scenario()) }

// heteroArms are the placement arms of the hetero ablation in report order:
// the fully aware policy first (the speedup base), then the capacity-blind
// and depth-blind variants.
var heteroArms = []arm[fabricArm]{
	{"aware", fabricArm{policy: placement.Hierarchical{}}},
	{"capacity-blind", fabricArm{policy: placement.Hierarchical{CapacityBlind: true}}},
	{"depth-blind", fabricArm{policy: placement.Hierarchical{NoFabricMatch: true}}},
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

// RunHetero executes the heterogeneous pod-tier stencil under one placement
// mode (see heteroArms) and returns its simulated processing time.
func RunHetero(mode string, cfg HeteroConfig) (Result, error) {
	s, err := cfg.scenario()
	run, err := s.runMode("hetero", heteroArms, mode, err)
	return s.result(run), err
}

// AblationHetero (A11) compares the placement arms on the heterogeneous
// pod-tier stencil.
func AblationHetero(cfg Config) ([]AblationRow, error) { return heteroRows(heteroConfigFrom(cfg)) }

// heteroRows runs the hetero ablation on one shape.
func heteroRows(cfg HeteroConfig) ([]AblationRow, error) {
	s, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	detail := fmt.Sprintf("%d pods x %d racks x (%d+%d) cores", cfg.Pods, cfg.RacksPerPod, heteroBigCores, heteroSmallCores)
	return s.sweep("hetero", heteroArms, func(fabricArm, programRun) string { return detail })
}

// heteroConfigFrom derives the hetero configuration from the common ablation
// Config: 2 pods of fixed big+small racks, the rack count scaled so the
// total core count comes close to cfg.Cores (each rack carries
// heteroBigCores+heteroSmallCores = 12 cores; the Detail column of every
// A11 row prints the effective shape), 20 iterations. The node shapes stay
// fixed because the scenario's volume ratios are calibrated per node; scale
// comes from more racks per pod, which is also how real pods grow.
func heteroConfigFrom(cfg Config) HeteroConfig {
	cfg = cfg.withDefaults()
	return HeteroConfig{
		Pods:        2,
		RacksPerPod: max(cfg.Cores/24, 1),
		Iters:       20,
		Seed:        cfg.Seed,
	}
}
