package placement

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/orwl"
	"repro/internal/topology"
)

// killAt is the canonical A14-style schedule: one node dies at the given
// 1-based epoch.
func killAt(epoch, node int) *topology.FaultSchedule {
	return &topology.FaultSchedule{Events: []topology.FaultEvent{
		{Epoch: epoch, Kind: topology.FaultKillNode, Node: node},
	}}
}

// checkSurvivorInvariants asserts the placement invariants that must hold
// after any evacuation, whatever the FaultMode: every task holds exactly one
// slot, every slot names a real PU on a surviving cluster node, and control
// slots are either unbound or alive too.
func checkSurvivorInvariants(t *testing.T, eng *AdaptiveEngine, tasks int) {
	t.Helper()
	a := eng.Assignment()
	if len(a.TaskPU) != tasks {
		t.Fatalf("assignment holds %d slots, want %d", len(a.TaskPU), tasks)
	}
	mach := eng.mach
	numPUs := mach.Topology().NumPUs()
	for id, pu := range a.TaskPU {
		if pu < 0 || pu >= numPUs {
			t.Fatalf("task %d on PU %d, out of range [0,%d)", id, pu, numPUs)
		}
		if mach.ClusterNodeDead(mach.ClusterNodeOfPU(pu)) {
			t.Errorf("task %d still on dead cluster node %d (PU %d)", id, mach.ClusterNodeOfPU(pu), pu)
		}
		if ctl := a.ControlPU[id]; ctl >= 0 && mach.ClusterNodeDead(mach.ClusterNodeOfPU(ctl)) {
			t.Errorf("task %d control thread still on dead cluster node (PU %d)", id, ctl)
		}
	}
}

// runFaultShift builds the miniShift workload on a fresh machine of the given
// spec and runs it under the given fault options, returning the engine.
func runFaultShift(t *testing.T, spec string, opts AdaptiveOptions) *AdaptiveEngine {
	t.Helper()
	mach := machine(t, spec)
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 16, 100, 1<<20, 1<<22) // shiftAt past iters: steady traffic
	eng, err := PlaceAdaptive(rt, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAdaptiveFaultEvacuation pins the tentpole path: a node killed mid-run
// forces an evacuation that bypasses hysteresis, is charged into the stats,
// and leaves no task — computation or control — on the dead node.
func TestAdaptiveFaultEvacuation(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
	}{
		{"rack2x2", "rack:2 node:2 pack:1 l3:1 core:2 pu:1"},
		{"rack2x2wide", "rack:2 node:2 pack:1 l3:1 core:4 pu:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := runFaultShift(t, tc.spec, AdaptiveOptions{
				Base: Hierarchical{}, EpochIters: 4, Faults: killAt(2, 1),
			})
			st := eng.Stats()
			if st.FaultEpochs != 1 {
				t.Errorf("FaultEpochs = %d, want 1", st.FaultEpochs)
			}
			if st.Evacuations < 1 {
				t.Fatalf("kill committed no evacuations (stats %+v)", st)
			}
			if st.EvacuationCostCycles <= 0 || math.IsInf(st.EvacuationCostCycles, 1) {
				t.Errorf("evacuation bill %v, want finite positive", st.EvacuationCostCycles)
			}
			if st.Rebinds < st.Evacuations {
				t.Errorf("rebinds %d below evacuations %d", st.Rebinds, st.Evacuations)
			}
			if st.MigrationCostCycles < st.EvacuationCostCycles {
				t.Errorf("total migration bill %v below the evacuation share %v",
					st.MigrationCostCycles, st.EvacuationCostCycles)
			}
			if st.IntraNodeRebinds+st.CrossNodeRebinds != st.Rebinds {
				t.Errorf("intra %d + cross %d != rebinds %d",
					st.IntraNodeRebinds, st.CrossNodeRebinds, st.Rebinds)
			}
			checkSurvivorInvariants(t, eng, 8)
		})
	}
}

// TestAdaptiveFaultModesInvariants runs every FaultMode over two platform
// shapes and asserts the mode-independent placement invariants plus each
// mode's contract: respawn never adapts, the others keep the candidate loop
// alive after the failure.
func TestAdaptiveFaultModesInvariants(t *testing.T) {
	specs := []string{
		"rack:2 node:2 pack:1 l3:1 core:2 pu:1",
		"rack:2 node:2 pack:1 l3:1 core:4 pu:1",
	}
	modes := []struct {
		name string
		mode FaultMode
	}{{"aware", FaultAware}, {"blind", FaultBlind}, {"respawn", FaultRespawn}}
	for _, spec := range specs {
		for _, m := range modes {
			t.Run(m.name+"/"+spec, func(t *testing.T) {
				opts := AdaptiveOptions{
					Base: Hierarchical{}, EpochIters: 4, Faults: killAt(2, 1), FaultMode: m.mode,
				}
				eng := runFaultShift(t, spec, opts)
				st := eng.Stats()
				if st.Evacuations < 1 {
					t.Fatalf("mode %s committed no evacuations (stats %+v)", m.name, st)
				}
				checkSurvivorInvariants(t, eng, 8)
				if m.mode == FaultRespawn && st.Applied != 0 {
					t.Errorf("respawn applied %d candidate mappings, want none", st.Applied)
				}
				if m.mode == FaultRespawn && st.Skipped != st.Epochs {
					t.Errorf("respawn skipped %d of %d epochs, want all", st.Skipped, st.Epochs)
				}
				// Determinism: the identical run commits the identical mapping
				// and the identical decision counters.
				again := runFaultShift(t, spec, opts)
				if !reflect.DeepEqual(eng.Assignment().TaskPU, again.Assignment().TaskPU) {
					t.Errorf("mode %s is not deterministic: assignments differ between identical runs", m.name)
				}
				if eng.Stats() != again.Stats() {
					t.Errorf("mode %s stats differ between identical runs:\n%+v\n%+v", m.name, eng.Stats(), again.Stats())
				}
			})
		}
	}
}

// TestAdaptiveDegradeKeepsRunning pins the non-fatal half of the fault model:
// a degraded fabric edge re-prices the run but evacuates nobody, and the
// engine keeps adapting on the degraded prices without error.
func TestAdaptiveDegradeKeepsRunning(t *testing.T) {
	mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	nic := mach.FabricGraph().LevelEdges(0)[0]
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 16, 100, 1<<20, 1<<22)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{
		Base: Hierarchical{}, EpochIters: 4,
		Faults: &topology.FaultSchedule{Events: []topology.FaultEvent{
			{Epoch: 2, Kind: topology.FaultDegradeEdge, Edge: nic, Factor: 0.25},
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.FaultEpochs != 1 {
		t.Errorf("FaultEpochs = %d, want 1", st.FaultEpochs)
	}
	if st.Evacuations != 0 {
		t.Errorf("degrade-only schedule evacuated %d tasks, want none", st.Evacuations)
	}
	if f := mach.EdgeFaultFactor(nic); f != 0.25 {
		t.Errorf("edge factor %v after the run, want 0.25", f)
	}
}

// TestAdaptiveFaultFreeMigrationStillCharged pins that evacuations are
// charged even in oracle (FreeMigration) runs: a dead node leaves no choice,
// so the forced move is not part of the "what if migration were free" bound.
func TestAdaptiveFaultFreeMigrationStillCharged(t *testing.T) {
	eng := runFaultShift(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1", AdaptiveOptions{
		Base: Hierarchical{}, EpochIters: 4, Faults: killAt(2, 1), FreeMigration: true,
	})
	st := eng.Stats()
	if st.Evacuations < 1 {
		t.Fatalf("no evacuations in the oracle run (stats %+v)", st)
	}
	if st.EvacuationCostCycles <= 0 {
		t.Errorf("oracle run left the evacuation unpriced (stats %+v)", st)
	}
}

// TestPlaceAdaptiveRejectsBadFaultConfig pins the upfront validation: a
// schedule that cannot apply to the machine, and an out-of-range FaultMode,
// are rejected before the run starts.
func TestPlaceAdaptiveRejectsBadFaultConfig(t *testing.T) {
	cases := []struct {
		name    string
		opts    AdaptiveOptions
		wantErr string
	}{
		{"epoch zero", AdaptiveOptions{EpochIters: 4, Faults: killAt(0, 1)}, "1-based"},
		{"unknown node", AdaptiveOptions{EpochIters: 4, Faults: killAt(2, 99)}, "unknown cluster node"},
		{"bad mode", AdaptiveOptions{EpochIters: 4, FaultMode: FaultMode(7)}, "unknown FaultMode"},
		{"conflicting events", AdaptiveOptions{EpochIters: 4, Faults: &topology.FaultSchedule{
			Events: []topology.FaultEvent{
				{Epoch: 2, Kind: topology.FaultDegradeEdge, Edge: 0, Factor: 0.5},
				{Epoch: 2, Kind: topology.FaultSeverEdge, Edge: 0},
			},
		}}, "conflicting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
			rt := orwl.NewRuntime(orwl.Options{Machine: mach})
			miniShift(rt, 8, 100, 1<<20, 1<<22)
			_, err := PlaceAdaptive(rt, tc.opts, nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("PlaceAdaptive: got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestAdaptiveEmptyScheduleIsNoop pins the bit-stability acceptance
// criterion at the engine level: an empty (but non-nil) fault schedule leaves
// every decision and the final mapping identical to a nil one.
func TestAdaptiveEmptyScheduleIsNoop(t *testing.T) {
	base := runFaultShift(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1", AdaptiveOptions{
		Base: Hierarchical{}, EpochIters: 4,
	})
	empty := runFaultShift(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1", AdaptiveOptions{
		Base: Hierarchical{}, EpochIters: 4, Faults: &topology.FaultSchedule{},
	})
	if !reflect.DeepEqual(base.Assignment(), empty.Assignment()) {
		t.Error("empty fault schedule changed the final assignment")
	}
	if base.Stats() != empty.Stats() {
		t.Errorf("empty fault schedule changed the stats:\n%+v\n%+v", base.Stats(), empty.Stats())
	}
}
