package experiment

import (
	"strings"
	"testing"
)

// TestAblationSched2Ordering is the A16 acceptance property: on every cell
// of the default shape × seed grid, the full policy stack (backfill +
// preemption + defragmentation) strictly beats backfill-only on aggregate
// job cycle time, and backfill-only strictly beats plain FIFO.
func TestAblationSched2Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell scheduler grid in -short mode")
	}
	cfg := Sched2ConfigFrom(Reduced)
	if len(schedShapes) < 2 || len(cfg.Seeds) < 2 {
		t.Fatalf("default grid %dx%d, want at least 2 shapes x 2 seeds", len(schedShapes), len(cfg.Seeds))
	}
	for _, shape := range schedShapes {
		for _, seed := range cfg.Seeds {
			agg := map[string]float64{}
			stream := sched2Stream
			stream.Seed = seed
			for _, arm := range sched2Arms {
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
			if !(agg["full"] < agg["backfill"]) {
				t.Errorf("shape %q seed %d: full %.0f not strictly below backfill %.0f",
					shape, seed, agg["full"], agg["backfill"])
			}
			if !(agg["backfill"] < agg["fifo"]) {
				t.Errorf("shape %q seed %d: backfill %.0f not strictly below fifo %.0f",
					shape, seed, agg["backfill"], agg["fifo"])
			}
		}
	}
}

// TestAblationSched2Rows: the ablation rows carry the registered orderings,
// positive times, the grid size in the detail, every phase-2 policy actually
// fires somewhere on the grid in its arm, and the full arm leaves the free
// capacity less fragmented than FIFO (defragmentation earns its name).
func TestAblationSched2Rows(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell scheduler grid in -short mode")
	}
	rows, err := AblationSched2(Sched2ConfigFrom(Reduced))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sched2Arms) {
		t.Fatalf("%d rows, want %d", len(rows), len(sched2Arms))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s has non-positive aggregate time %v", r.Name, r.Seconds)
		}
		if !strings.Contains(r.Detail, "cells=4") {
			t.Errorf("%s detail %q does not report the 2x2 grid", r.Name, r.Detail)
		}
		if !strings.Contains(r.Detail, "backfills=") || !strings.Contains(r.Detail, "preempts=") ||
			!strings.Contains(r.Detail, "defrags=") {
			t.Errorf("%s detail %q misses the policy-activity counters", r.Name, r.Detail)
		}
	}
	if err := CheckOrderings(rows, AblationOrderings("sched2")); err != nil {
		t.Errorf("registered sched2 orderings violated: %v", err)
	}

	cfg := Sched2ConfigFrom(Reduced)
	full, err := runSchedGrid(armNamed(t, sched2Arms, "full"), sched2Stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := runSchedGrid(armNamed(t, sched2Arms, "backfill"), sched2Stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := runSchedGrid(armNamed(t, sched2Arms, "fifo"), sched2Stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An arm whose headline policy never fires is not an ablation of that
	// policy — the grid must exercise all three.
	if full.Backfills == 0 || full.Preemptions == 0 || full.DefragMigrations == 0 {
		t.Errorf("full arm policy activity backfills=%d preempts=%d defrags=%d, want all > 0",
			full.Backfills, full.Preemptions, full.DefragMigrations)
	}
	if bf.Backfills == 0 {
		t.Errorf("backfill arm never backfilled")
	}
	if bf.Preemptions != 0 || bf.DefragMigrations != 0 || fifo.Backfills != 0 ||
		fifo.Preemptions != 0 || fifo.DefragMigrations != 0 {
		t.Errorf("disabled policies fired: backfill arm pre=%d df=%d, fifo arm bf=%d pre=%d df=%d",
			bf.Preemptions, bf.DefragMigrations, fifo.Backfills, fifo.Preemptions, fifo.DefragMigrations)
	}
	if !(full.FragmentationAvg < fifo.FragmentationAvg) {
		t.Errorf("full frag %.3f not below fifo %.3f", full.FragmentationAvg, fifo.FragmentationAvg)
	}
}

// TestSched2ConfigValidate rejects broken grids before any cell runs.
func TestSched2ConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  SchedConfig
		want string
	}{
		{"no seeds", SchedConfig{}, "seed"},
		{"bad mode reaches RunSched2", SchedConfig{}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == "" {
				if _, err := armPolicy("sched2", sched2Arms, "greedy"); err == nil ||
					!strings.Contains(err.Error(), "unknown sched2 mode") {
					t.Fatalf("unknown mode error = %v", err)
				}
				return
			}
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
