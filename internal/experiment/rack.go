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
	// Racks is the number of top-of-rack switches (default 2, minimum 2 so
	// the uplinks exist).
	Racks int
	// NodesPerRack is the number of cluster nodes under each switch
	// (default 2).
	NodesPerRack int
	// CoresPerNode and CoresPerSocket shape each machine (defaults 8 and 4).
	CoresPerNode, CoresPerSocket int
	// Iters is the number of stencil iterations (default 20).
	Iters int
	// BlockBytes is each task's working set (default 2 MiB).
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged between grid
	// neighbours inside a node-sized block (default 256 KiB): each block is
	// a small 2-row stencil grid, so splitting it cuts several heavy edges.
	HaloBytes float64
	// PairBytes is the per-iteration volume between slot-aligned tasks of
	// partnered blocks (default 320 KiB): the traffic whose rack placement
	// the ablation isolates. Slightly heavier than one halo edge — a single
	// hot link is exactly what greedy bottom-up grouping chases across block
	// boundaries — but far below a block's aggregate coupling, so the
	// min-cut partition keeps blocks intact.
	PairBytes float64
	// LinkBytes is the light connectivity volume between consecutive blocks
	// (default 32 KiB).
	LinkBytes float64
	// Fabric overrides the interconnect parameters; zero fields keep the
	// defaults (10GbE-class NICs, 2x10GbE-class uplinks). Racks is forced to
	// the Racks field above.
	Fabric numasim.Fabric
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c RackConfig) withDefaults() RackConfig {
	if c.Racks == 0 {
		c.Racks = 2
	}
	if c.NodesPerRack == 0 {
		c.NodesPerRack = 2
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 8
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
		c.HaloBytes = 256 << 10
	}
	if c.PairBytes == 0 {
		c.PairBytes = 320 << 10
	}
	if c.LinkBytes == 0 {
		c.LinkBytes = 32 << 10
	}
	return c
}

// Validate rejects configurations the rack pipeline cannot run.
func (c RackConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Racks < 2:
		return fmt.Errorf("experiment: rack scenario needs at least 2 racks, got %d", d.Racks)
	case d.NodesPerRack < 1:
		return fmt.Errorf("experiment: invalid nodes per rack %d", d.NodesPerRack)
	case d.Racks*d.NodesPerRack%2 != 0:
		return fmt.Errorf("experiment: %d blocks cannot be paired (need an even node count)", d.Racks*d.NodesPerRack)
	case d.CoresPerNode < 1 || d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.CoresPerNode%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: %d cores per node not divisible into sockets of %d", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0 || d.PairBytes < 0 || d.LinkBytes < 0:
		return fmt.Errorf("experiment: negative volume in rack config")
	}
	return nil
}

// RackCluster builds the simulated multi-switch cluster for a configuration
// via the spec-driven platform path. Unless overridden, the rack uplink is
// an oversubscribed single trunk of NIC-class bandwidth — the classic 2016
// rack, where every stream leaving the rack funnels through one 10GbE-class
// uplink — so rack-crossing traffic pays for itself in bandwidth as well as
// latency.
func RackCluster(cfg RackConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	fabric := cfg.Fabric
	if fabric.UplinkBandwidthBytesPerSec == 0 {
		bw := fabric.LinkBandwidthBytesPerSec
		if bw == 0 {
			bw = topology.DefaultAttrs().NetBandwidth
		}
		fabric.UplinkBandwidthBytesPerSec = bw
	}
	spec := fmt.Sprintf("rack:%d node:%d pack:%d l3:1 core:%d pu:1",
		cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode/cfg.CoresPerSocket, cfg.CoresPerSocket)
	return numasim.NewPlatformAttrs(spec, fabric.Defaults(), numasim.Config{})
}

// rackArms are the placement arms of the rack ablation in report order:
// fabric-aware three-level placement first (the speedup base), then the
// fabric-blind hierarchical variant and flat TreeMatch.
var rackArms = []arm[placement.Policy]{
	{"rack-aware", placement.Hierarchical{}},
	{"rack-blind", placement.Hierarchical{NoFabricMatch: true}},
	{"flat", placement.TreeMatch{}},
}

// rackStencil is the rack-skewed stencil on the shared node-block workload
// (see blockStencil). Beyond its block's grid, task slot of block b
//
//   - exchanges PairBytes with task slot of the partner block b ± B/2 (the
//     rack-decisive medium traffic: with B blocks numbered in partition
//     order, pairs (b, b+B/2) always straddle the identity group→node
//     assignment's rack split),
//   - and, for slot 0 only, exchanges LinkBytes with the neighbouring blocks
//     (light connectivity so the affinity graph is one component).
func rackStencil(cfg RackConfig) blockStencil {
	blocks := cfg.Racks * cfg.NodesPerRack
	return blockStencil{
		sizes: uniformBlocks(blocks, cfg.CoresPerNode),
		iters: cfg.Iters, blockBytes: cfg.BlockBytes, haloBytes: cfg.HaloBytes,
		extra: func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
			reads := []*orwl.Handle{task.NewHandleVol(at((b+blocks/2)%blocks, slot), orwl.Read, cfg.PairBytes, 0)}
			return append(reads, linkReads(task, b, slot, blocks, cfg.LinkBytes, at)...), nil
		},
	}
}

// linkReads creates the light connectivity ring over the blocks: slot 0 of
// every block reads the first slot of the next and the previous block.
func linkReads(task *orwl.Task, b, slot, blocks int, vol float64, at locAt) []*orwl.Handle {
	if slot != 0 || blocks <= 2 {
		return nil
	}
	return []*orwl.Handle{
		task.NewHandleVol(at((b+1)%blocks, 0), orwl.Read, vol, 0),
		task.NewHandleVol(at((b+blocks-1)%blocks, 0), orwl.Read, vol, 0),
	}
}

// RunRack executes the rack-skewed stencil under one placement mode (see
// rackArms) and returns its simulated processing time.
func RunRack(mode string, cfg RackConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	pol, err := armPolicy("rack", rackArms, mode)
	if err != nil {
		return Result{}, err
	}
	return runRack(pol, cfg.withDefaults())
}

func runRack(pol placement.Policy, cfg RackConfig) (Result, error) {
	cluster, err := RackCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	run, err := runStencil(cluster.Machine(), cfg.Seed, rackStencil(cfg).build, pol, nil)
	if err != nil {
		return Result{}, err
	}
	tasks := cfg.Racks * cfg.NodesPerRack * cfg.CoresPerNode
	return run.result(tasks, tasks), nil
}

// AblationRack (A10) compares the placement arms on the rack-skewed stencil.
func AblationRack(cfg RackConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	detail := fmt.Sprintf("%d racks x %d nodes x %d cores", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode)
	return sweep("rack", rackArms,
		func(pol placement.Policy) (Result, error) { return runRack(pol, cfg) },
		func(_ arm[placement.Policy], res Result) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: detail}
		})
}

// RackConfigFrom derives the rack configuration from the common ablation
// Config: 2 racks of fixed 8-core nodes, the node count scaled so the total
// core count comes close to cfg.Cores (the Detail column of every A10 row
// prints the effective shape). The node shape stays fixed because the
// scenario's volume ratios are calibrated per node; scale comes from more
// nodes per rack, which is also how real racks grow.
func RackConfigFrom(cfg Config) RackConfig {
	cfg = cfg.withDefaults()
	perRack := cfg.Cores / 16
	if perRack < 1 {
		perRack = 1
	}
	return RackConfig{
		Racks:          2,
		NodesPerRack:   perRack,
		CoresPerNode:   8,
		CoresPerSocket: 4,
		Seed:           cfg.Seed,
	}
}
