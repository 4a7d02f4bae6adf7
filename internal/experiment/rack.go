package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// The rack experiment (A10) exercises the multi-switch fabric: the same
// hierarchical placement pipeline on a cluster whose nodes are split across
// top-of-rack switches, with rack uplinks priced above NIC links. The
// workload is a rack-skewed stencil — heavy traffic inside node-sized blocks
// plus a medium pair exchange between specific blocks — so where each
// partition group lands relative to the rack boundaries decides how much
// volume crosses the uplinks. Fabric-aware three-level placement (racks →
// nodes → cores) keeps the paired groups under one switch; the fabric-blind
// variant pins group g to node g and splits every pair across racks; flat
// TreeMatch on the whole cluster tree optimizes no cut explicitly.

// RackConfig parameterizes one rack-skewed stencil run.
type RackConfig struct {
	// Racks is the number of top-of-rack switches (minimum 2, so the uplinks
	// exist).
	Racks int
	// NodesPerRack is the number of cluster nodes under each switch.
	NodesPerRack int
	// CoresPerNode and CoresPerSocket shape each machine.
	CoresPerNode, CoresPerSocket int
	// Iters is the number of stencil iterations.
	Iters int
	// Seed drives the simulated OS scheduler.
	Seed int64
}

// The per-iteration volumes of the rack-skewed stencil.
const (
	// rackBlockBytes is each task's working set.
	rackBlockBytes = 2 << 20
	// rackHaloBytes is the volume exchanged between grid neighbours inside a
	// node-sized block: each block is a small 2-row stencil grid, so
	// splitting it cuts several heavy edges.
	rackHaloBytes = 256 << 10
	// rackPairBytes is the volume between slot-aligned tasks of partnered
	// blocks: the traffic whose rack placement the ablation isolates.
	// Slightly heavier than one halo edge — a single hot link is exactly
	// what greedy bottom-up grouping chases across block boundaries — but
	// far below a block's aggregate coupling, so the min-cut partition keeps
	// blocks intact.
	rackPairBytes = 320 << 10
	// linkBytes is the light connectivity volume between consecutive blocks
	// of the rack and hetero stencils.
	linkBytes = 32 << 10
)

// oversubscribed returns the link attributes of the rack and pod
// scenarios: every uplink is an oversubscribed single trunk of NIC-class
// bandwidth — the classic 2016 rack, where every stream leaving a rack (or a
// pod) funnels through one 10GbE-class link — so climbing the fabric pays in
// bandwidth as well as latency.
func oversubscribed() topology.Defaults {
	def := topology.DefaultAttrs()
	def.UplinkBandwidth, def.PodUplinkBandwidth = def.NetBandwidth, def.NetBandwidth
	return def
}

// scenario builds the rack scenario: Racks switches of NodesPerRack
// machines and the rack-skewed stencil on the shared node-block workload
// (see blockStencil). Beyond its block's grid, task slot of block b
//
//   - exchanges rackPairBytes with task slot of the partner block b ± B/2
//     (the rack-decisive medium traffic: with B blocks numbered in partition
//     order, pairs (b, b+B/2) always straddle the identity group→node
//     assignment's rack split),
//   - and, for slot 0 only, exchanges linkBytes with the neighbouring blocks
//     (light connectivity so the affinity graph is one component).
func (c RackConfig) scenario() (scenario, error) {
	node, err := nodeSpec(c.CoresPerNode, c.CoresPerSocket)
	blocks := c.Racks * c.NodesPerRack
	switch {
	case c.Racks < 2:
		return scenario{}, fmt.Errorf("experiment: rack scenario needs at least 2 racks, got %d", c.Racks)
	case c.NodesPerRack < 1:
		return scenario{}, fmt.Errorf("experiment: invalid nodes per rack %d", c.NodesPerRack)
	case blocks%2 != 0:
		return scenario{}, fmt.Errorf("experiment: %d blocks cannot be paired (need an even node count)", blocks)
	case err != nil:
		return scenario{}, err
	}
	return scenario{
		spec:  fmt.Sprintf("rack:%d node:%d %s", c.Racks, c.NodesPerRack, node),
		attrs: oversubscribed(),
		stencil: blockStencil{
			sizes: uniformBlocks(blocks, c.CoresPerNode),
			iters: c.Iters, blockBytes: rackBlockBytes, haloBytes: rackHaloBytes,
			extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
				reads := []*orwl.Handle{task.NewHandleVol(at((b+blocks/2)%blocks, slot), orwl.Read, rackPairBytes, 0)}
				return append(reads, linkReads(task, b, slot, blocks, at)...), nil
			},
		},
		seed: c.Seed,
	}, nil
}

// RackCluster builds the simulated multi-switch cluster of a configuration.
func RackCluster(cfg RackConfig) (*numasim.Platform, error) { return platformOf(cfg.scenario()) }

// rackArms are the placement arms of the rack ablation in report order:
// fabric-aware three-level placement first (the speedup base), then the
// fabric-blind hierarchical variant and flat TreeMatch.
var rackArms = []arm[fabricArm]{
	{"rack-aware", fabricArm{policy: placement.Hierarchical{}}},
	{"rack-blind", fabricArm{policy: placement.Hierarchical{NoFabricMatch: true}}},
	{"flat", fabricArm{policy: placement.TreeMatch{}}},
}

// linkReads creates the light connectivity ring over the blocks: slot 0 of
// every block reads the first slot of the next and the previous block.
func linkReads(task *orwl.Task, b, slot, blocks int, at locAt) []*orwl.Handle {
	if slot != 0 || blocks <= 2 {
		return nil
	}
	return []*orwl.Handle{
		task.NewHandleVol(at((b+1)%blocks, 0), orwl.Read, linkBytes, 0),
		task.NewHandleVol(at((b+blocks-1)%blocks, 0), orwl.Read, linkBytes, 0),
	}
}

// RunRack executes the rack-skewed stencil under one placement mode (see
// rackArms) and returns its simulated processing time.
func RunRack(mode string, cfg RackConfig) (Result, error) {
	s, err := cfg.scenario()
	run, err := s.runMode("rack", rackArms, mode, err)
	return s.result(run), err
}

// AblationRack (A10) compares the placement arms on the rack-skewed stencil.
func AblationRack(cfg Config) ([]AblationRow, error) { return rackRows(rackConfigFrom(cfg)) }

// rackRows runs the rack ablation on one shape.
func rackRows(cfg RackConfig) ([]AblationRow, error) {
	s, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	detail := fmt.Sprintf("%d racks x %d nodes x %d cores", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode)
	return s.sweep("rack", rackArms, func(fabricArm, programRun) string { return detail })
}

// rackConfigFrom derives the rack configuration from the common ablation
// Config: 2 racks of fixed 8-core nodes, the node count scaled so the total
// core count comes close to cfg.Cores (the Detail column of every A10 row
// prints the effective shape), 20 iterations. The node shape stays fixed
// because the scenario's volume ratios are calibrated per node; scale comes
// from more nodes per rack, which is also how real racks grow.
func rackConfigFrom(cfg Config) RackConfig {
	cfg = cfg.withDefaults()
	return RackConfig{
		Racks:          2,
		NodesPerRack:   max(cfg.Cores/16, 1),
		CoresPerNode:   8,
		CoresPerSocket: 4,
		Iters:          20,
		Seed:           cfg.Seed,
	}
}
