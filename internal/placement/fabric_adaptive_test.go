package placement

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
)

// miniShift builds a minimal rack-crossing phase shift for engine-level
// tests: 4 blocks of 2 tasks on a 2-rack × 2-node cluster (one block per
// node). Tasks exchange a heavy halo inside their block; slot-0 tasks
// additionally exchange pairBytes with the adjacent block (b^1) before the
// shift and with the diametric block (b+2)%4 after it (the quiet partner's
// volume is 0, so it contributes no stream). The initial fabric matching
// co-racks the adjacent pairs, so the post-shift pairs cross the racks
// until the engine swaps blocks across the uplinks.
func miniShift(rt *orwl.Runtime, iters, shiftAt int, haloBytes, pairBytes float64) {
	const blocks, c = 4, 2
	var locs [blocks * c]*orwl.Location
	for i := range locs {
		locs[i] = rt.NewLocation("blk", 1<<20)
	}
	for b := 0; b < blocks; b++ {
		for s := 0; s < c; s++ {
			i := b*c + s
			task := rt.AddTask("t", nil)
			halo := task.NewHandleVol(locs[b*c+(s+1)%c], orwl.Read, haloBytes, 0)
			var p1, p2 *orwl.Handle
			if s == 0 {
				p1 = task.NewHandleVol(locs[(b^1)*c], orwl.Read, pairBytes, 0)
				p2 = task.NewHandleVol(locs[((b+2)%blocks)*c], orwl.Read, 0, 0)
			}
			w := task.NewHandleVol(locs[i], orwl.Write, haloBytes, 1)
			task.SetFunc(func(tk *orwl.Task) error {
				for it := 0; it < iters; it++ {
					if it == shiftAt && p1 != nil {
						p1.SetVolume(0)
						p2.SetVolume(pairBytes)
					}
					last := it == iters-1
					hs := []*orwl.Handle{halo, w}
					if p1 != nil {
						hs = []*orwl.Handle{halo, p1, p2, w}
					}
					for _, h := range hs {
						if err := h.Acquire(); err != nil {
							return err
						}
						var err error
						if last {
							err = h.Release()
						} else {
							err = h.ReleaseAndRequest()
						}
						if err != nil {
							return err
						}
					}
					tk.EndIteration()
				}
				return nil
			})
		}
	}
}

// TestAdaptiveFabricMoveAccounting pins the engine's platform accounting:
// recovering from a rack-crossing shift commits cross-node moves (a subset
// cross-rack), the intra/cross split is consistent with the total, and the
// modeled migration bill prices more than the bare per-move penalty —
// the working-set pull over the fabric is charged on top, in network
// cycles (see TestMigrationCostNetworkPriced for the per-move pricing).
func TestAdaptiveFabricMoveAccounting(t *testing.T) {
	mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 16, 4, 1<<20, 1<<22)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{Base: Hierarchical{}, EpochIters: 4})
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
	if st.Applied < 1 {
		t.Fatalf("engine never applied a re-placement (stats %+v)", st)
	}
	if st.CrossNodeRebinds == 0 || st.CrossRackRebinds == 0 {
		t.Errorf("recovery committed no cross-fabric moves (stats %+v)", st)
	}
	if st.IntraNodeRebinds+st.CrossNodeRebinds != st.Rebinds {
		t.Errorf("intra %d + cross %d != rebinds %d", st.IntraNodeRebinds, st.CrossNodeRebinds, st.Rebinds)
	}
	if st.CrossRackRebinds > st.CrossNodeRebinds {
		t.Errorf("cross-rack %d exceeds cross-node %d", st.CrossRackRebinds, st.CrossNodeRebinds)
	}
	floor := float64(st.Rebinds) * mach.Config().MigrationPenaltyCycles
	if st.MigrationCostCycles <= floor {
		t.Errorf("migration bill %.0f cycles not above the bare penalty floor %.0f; the fabric pull went unpriced",
			st.MigrationCostCycles, floor)
	}
}

// TestAdaptiveRefreshesFabricContention pins that a committed re-placement
// re-derives the per-link fabric contention: the test never declares link
// streams itself, so any per-link count in force after the run was put
// there by the engine's post-apply refresh.
func TestAdaptiveRefreshesFabricContention(t *testing.T) {
	mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 16, 4, 1<<20, 1<<22)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{Base: Hierarchical{}, EpochIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Applied < 1 {
		t.Fatalf("engine never applied (stats %+v); the refresh path was not exercised", eng.Stats())
	}
	total := 0
	for c := 0; c < 4; c++ {
		total += linkStreams(mach, 0, c)
	}
	if total == 0 {
		t.Errorf("no per-link NIC streams declared after the run; the engine did not refresh the contention model")
	}
}

// TestAdaptiveSingleMachineStatsUnchanged pins that the new move
// classification stays trivial on a single machine: every committed move is
// intra-node, and no cross-fabric counters fire.
func TestAdaptiveSingleMachineStatsUnchanged(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	adaptiveRing(rt, 8, 12, 1<<20)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{EpochIters: 3, FreeMigration: true})
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
	if st.CrossNodeRebinds != 0 || st.CrossRackRebinds != 0 {
		t.Errorf("single-machine run counted cross-fabric moves: %+v", st)
	}
	if st.IntraNodeRebinds != st.Rebinds {
		t.Errorf("intra-node count %d != rebinds %d on a single machine", st.IntraNodeRebinds, st.Rebinds)
	}
}

// unboundFirst wraps a policy and releases task 0 to the OS scheduler: the
// smallest base that hands the adaptive engine a current mapping with an
// unbound slot.
type unboundFirst struct{ Policy }

func (p unboundFirst) Name() string { return "unbound-first(" + p.Policy.Name() + ")" }

func (p unboundFirst) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	a, err := p.Policy.Assign(mach, m)
	if err != nil {
		return nil, err
	}
	if len(a.TaskPU) > 0 {
		a.TaskPU[0] = -1
	}
	return a, nil
}

// TestAdaptiveUnboundBaseOnCluster is the regression test for the move
// classification when a committed move starts from an unbound slot (no
// previous PU): it must classify as leaving cluster node 0 — the same
// convention MigrationCostCycles prices — instead of indexing the PU table
// with -1. The base scatters tasks across the fabric with task 0 unbound,
// so the first hierarchical candidate wins by a wide margin and the apply
// path runs over the from == -1 slot.
func TestAdaptiveUnboundBaseOnCluster(t *testing.T) {
	mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 8, 4, 1<<20, 1<<22)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{
		Base: unboundFirst{Scatter{}}, Candidate: Hierarchical{}, EpochIters: 2, FreeMigration: true,
	})
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
	if st.Applied == 0 || st.Rebinds == 0 {
		t.Fatalf("engine never re-placed the scattered tasks (stats %+v); the unbound slot went unexercised", st)
	}
	if st.IntraNodeRebinds+st.CrossNodeRebinds != st.Rebinds {
		t.Errorf("intra %d + cross %d != rebinds %d", st.IntraNodeRebinds, st.CrossNodeRebinds, st.Rebinds)
	}
	if pu := rt.Tasks()[0].Proc().PU(); pu < 0 {
		t.Errorf("task 0 still unbound after the applied re-placement")
	}
}

// TestAdaptiveUnbindingCandidateDoesNotPanic pins the hysteresis pricing
// against a candidate policy that leaves tasks unbound: an unbound slot is
// never applied, so it must not be priced either (pricing it would index
// the machine's PU tables with -1). The engine simply commits no moves.
func TestAdaptiveUnbindingCandidateDoesNotPanic(t *testing.T) {
	mach := machine(t, "rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	miniShift(rt, 8, 4, 1<<20, 1<<22)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{
		Base: Hierarchical{}, Candidate: NoBind{}, EpochIters: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Rebinds != 0 {
		t.Errorf("unbinding candidate committed %d rebinds, want none (stats %+v)", st.Rebinds, st)
	}
}
