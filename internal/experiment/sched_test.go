package experiment

import (
	"strings"
	"testing"
)

// TestAblationSchedOrdering is the A15 acceptance property: on every cell of
// the default shape × seed grid (a 2-tier and a 3-tier domain ladder, two
// stream seeds each), the topology-aware scheduler strictly beats the
// topo-blind one on aggregate job cycle time, and topo-blind strictly beats
// constraint-ignoring first-fit.
func TestAblationSchedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell scheduler grid in -short mode")
	}
	seeds := schedSeeds(Reduced)
	if len(schedShapes) < 2 || len(seeds) < 2 {
		t.Fatalf("default grid %dx%d, want at least 2 shapes x 2 seeds", len(schedShapes), len(seeds))
	}
	for _, shape := range schedShapes {
		for _, seed := range seeds {
			agg := map[string]float64{}
			stream := schedStream
			stream.Seed = seed
			for _, arm := range schedArms {
				mode := arm.name
				rep, err := runSchedCell(arm.policy, shape, stream)
				if err != nil {
					t.Fatalf("%s shape %q seed %d: %v", mode, shape, seed, err)
				}
				if rep.Admitted == 0 {
					t.Fatalf("%s shape %q seed %d: no jobs admitted", mode, shape, seed)
				}
				agg[mode] = rep.AggregateCycles
			}
			if !(agg["topo-aware"] < agg["topo-blind"]) {
				t.Errorf("shape %q seed %d: topo-aware %.0f not strictly below topo-blind %.0f",
					shape, seed, agg["topo-aware"], agg["topo-blind"])
			}
			if !(agg["topo-blind"] < agg["first-fit"]) {
				t.Errorf("shape %q seed %d: topo-blind %.0f not strictly below first-fit %.0f",
					shape, seed, agg["topo-blind"], agg["first-fit"])
			}
		}
	}
}

// TestAblationSchedRows: the ablation rows carry the registered orderings,
// positive times, the grid size in the detail, and the aware arm leaves the
// free capacity less fragmented than constraint-ignoring first-fit (the
// packed-vs-fragmented utilization claim).
func TestAblationSchedRows(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell scheduler grid in -short mode")
	}
	rows, err := AblationSched(Reduced)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(schedArms) {
		t.Fatalf("%d rows, want %d", len(rows), len(schedArms))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s has non-positive aggregate time %v", r.Name, r.Seconds)
		}
		if !strings.Contains(r.Detail, "cells=4") {
			t.Errorf("%s detail %q does not report the 2x2 grid", r.Name, r.Detail)
		}
		if !strings.Contains(r.Detail, "frag=") || !strings.Contains(r.Detail, "util=") {
			t.Errorf("%s detail %q misses the utilization metrics", r.Name, r.Detail)
		}
	}
	if err := CheckOrderings(rows, AblationOrderings("sched")); err != nil {
		t.Errorf("registered sched orderings violated: %v", err)
	}
	seeds := schedSeeds(Reduced)
	aware, err := runSchedGrid(armNamed(t, schedArms, "topo-aware"), schedStream, seeds)
	if err != nil {
		t.Fatal(err)
	}
	first, err := runSchedGrid(armNamed(t, schedArms, "first-fit"), schedStream, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !(aware.FragmentationAvg < first.FragmentationAvg) {
		t.Errorf("topo-aware frag %.3f not below first-fit %.3f",
			aware.FragmentationAvg, first.FragmentationAvg)
	}
}

// TestSchedConfigValidate rejects a broken grid before any cell runs. The
// seeds derive from Config.Seed and cannot be empty, so the one check left
// is a mode no arm of the study names.
func TestSchedConfigValidate(t *testing.T) {
	t.Run("bad mode reaches RunSched", func(t *testing.T) {
		if _, err := armPolicy("sched", schedArms, "round-robin"); err == nil ||
			!strings.Contains(err.Error(), "unknown sched mode") {
			t.Fatalf("unknown mode error = %v", err)
		}
	})
}

// TestSchedBracedShape pins that the cell runner builds its platform with
// the grammar: a braced heterogeneous shape runs a stream.
func TestSchedBracedShape(t *testing.T) {
	stream := schedStream
	stream.Jobs, stream.Seed = 6, 7
	rep, err := runSchedCell(armNamed(t, schedArms, "topo-aware"),
		"rack:2 node:{pack:1 core:4 | pack:1 core:2}", stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted == 0 {
		t.Errorf("admitted no jobs on the braced shape")
	}
}
