package placement

import (
	"slices"
	"testing"

	"repro/internal/comm"
)

// TestAnchorCandidateRules drives anchorCandidate on a hand-built engine,
// one row per rewrite: the whole-node revert, the pairwise swap, the park
// on a vacated slot, and a cost-changing move that no rule may undo. On
// "pack:2 core:4 pu:1" PU p is core p, cores 0–3 share package 0 and 4–7
// package 1, and the machine is one cluster node, so every move is within
// a node. The adaptive studies reach the first two rules only; no study
// reaches the park.
func TestAnchorCandidateRules(t *testing.T) {
	mach := machine(t, "pack:2 core:4 pu:1")
	matrix := func(n int, pairs ...[2]int) *comm.Matrix {
		m := comm.New(n)
		for _, p := range pairs {
			m.AddSym(p[0], p[1], 100)
		}
		return m
	}
	for _, c := range []struct {
		name string
		w    *comm.Matrix
		// The mapping in force, and the candidate before and after.
		current, currentCtl []int
		taskPU, controlPU   []int
		wantPU, wantCtl     []int
	}{{
		// t0 and t1 trade cores within package 0: reverting both at once
		// costs the same, so the node's block goes back and the movers get
		// their control PUs in force (a swap would trade 7 and 6); t2 did
		// not move and keeps its candidate control.
		name:    "node revert",
		w:       matrix(3, [2]int{0, 1}, [2]int{1, 2}),
		current: []int{0, 1, 4}, currentCtl: []int{2, 3, 5},
		taskPU: []int{1, 0, 4}, controlPU: []int{6, 7, 4},
		wantPU: []int{0, 1, 4}, wantCtl: []int{2, 3, 4},
	}, {
		// t0 and t1 trade cores and t2 leaves t3's package: the block
		// revert would move t2 back across the packages and fails, but the
		// pair t0–t1 swaps back at equal cost and trades its candidate
		// controls with it; t2's move is real and stays.
		name:    "swap",
		w:       matrix(4, [2]int{0, 1}, [2]int{2, 3}),
		current: []int{0, 1, 4, 5}, currentCtl: []int{2, 3, 6, 7},
		taskPU: []int{1, 0, 2, 5}, controlPU: []int{6, 7, 3, 4},
		wantPU: []int{0, 1, 2, 5}, wantCtl: []int{7, 6, 3, 4},
	}, {
		// t0 moves at no cost (it has no traffic) and t1 joins t2's
		// package: the block revert changes t1–t2's cost and fails, no
		// task holds t0's current core, so t0 is parked back on core 0
		// with its control PU; t1's move is real and stays.
		name:    "park",
		w:       matrix(3, [2]int{1, 2}),
		current: []int{0, 1, 4}, currentCtl: []int{3, 2, 6},
		taskPU: []int{2, 5, 4}, controlPU: []int{7, 6, 5},
		wantPU: []int{0, 5, 4}, wantCtl: []int{3, 6, 5},
	}, {
		// t0 follows its partner t2 to package 1 and t1 takes t0's old
		// core: reverting the node or swapping t0 and t1 back would part
		// t0 from t2, and neither vacates a slot, so nothing is rewritten.
		name:    "no rewrite",
		w:       matrix(3, [2]int{0, 2}),
		current: []int{0, 4, 5}, currentCtl: []int{1, 6, 7},
		taskPU: []int{4, 0, 5}, controlPU: []int{6, 1, 7},
		wantPU: []int{4, 0, 5}, wantCtl: []int{6, 1, 7},
	}} {
		t.Run(c.name, func(t *testing.T) {
			e := &AdaptiveEngine{mach: mach, current: c.current, currentCtl: c.currentCtl}
			live := make([]bool, len(c.taskPU))
			for i := range live {
				live[i] = true
			}
			cand := &Assignment{TaskPU: slices.Clone(c.taskPU), ControlPU: slices.Clone(c.controlPU)}
			e.anchorCandidate(cand, c.w, live)
			if !slices.Equal(cand.TaskPU, c.wantPU) || !slices.Equal(cand.ControlPU, c.wantCtl) {
				t.Errorf("anchored to tasks %v, controls %v; want %v, %v",
					cand.TaskPU, cand.ControlPU, c.wantPU, c.wantCtl)
			}
			if !slices.Equal(e.current, c.current) || !slices.Equal(e.currentCtl, c.currentCtl) {
				t.Errorf("the mapping in force changed to %v, %v", e.current, e.currentCtl)
			}
		})
	}
}
