package treematch

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func TestMapHyperthreadStrategy(t *testing.T) {
	tree := mustTree(t, 2, 4) // 8 cores
	m := comm.Ring(8, 10)
	res, err := Map(Target{Tree: tree, SMTWays: 2}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlHyperthread {
		t.Fatalf("strategy = %v, want hyperthread", res.Strategy)
	}
	for i := range res.Control {
		if res.Control[i] != res.Assignment[i] {
			t.Errorf("control[%d] = %d, want same core as task (%d)", i, res.Control[i], res.Assignment[i])
		}
	}
}

func TestMapSpareCoresStrategy(t *testing.T) {
	tree := mustTree(t, 2, 4) // 8 cores, 4 tasks -> 4 spare cores
	m := comm.Ring(4, 10)
	res, err := Map(Target{Tree: tree, SMTWays: 1}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlSpareCores {
		t.Fatalf("strategy = %v, want spare-cores", res.Strategy)
	}
	if len(res.Assignment) != 4 || len(res.Control) != 4 {
		t.Fatalf("lengths: %d tasks, %d controls", len(res.Assignment), len(res.Control))
	}
	// All four control threads fit (4 spare cores); no core is used twice.
	used := map[int]bool{}
	for i := 0; i < 4; i++ {
		if res.Control[i] < 0 {
			t.Errorf("control %d unmapped despite spare cores", i)
			continue
		}
		for _, leaf := range []int{res.Assignment[i], res.Control[i]} {
			if used[leaf] {
				t.Errorf("core %d assigned twice", leaf)
			}
			used[leaf] = true
		}
	}
	// Each control thread should sit in the same half of the tree (same
	// socket) as its task: affinity task↔control dominates.
	for i := 0; i < 4; i++ {
		if res.Control[i] < 0 {
			continue
		}
		if tree.LeafDistance(res.Assignment[i], res.Control[i]) > 2 {
			t.Errorf("control %d at distance %d from its task", i,
				tree.LeafDistance(res.Assignment[i], res.Control[i]))
		}
	}
}

func TestMapSpareCoresPartial(t *testing.T) {
	tree := mustTree(t, 6) // 6 cores, 4 tasks -> only 2 spare cores
	m := comm.New(4)
	m.AddSym(0, 1, 100) // tasks 0 and 1 are the heavy communicators
	m.AddSym(2, 3, 1)
	res, err := Map(Target{Tree: tree, SMTWays: 1}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlSpareCores {
		t.Fatalf("strategy = %v", res.Strategy)
	}
	mapped := 0
	for _, c := range res.Control {
		if c >= 0 {
			mapped++
		}
	}
	if mapped != 2 {
		t.Errorf("mapped %d control threads, want 2 (one per spare core)", mapped)
	}
	// The heavy tasks 0 and 1 get the spare slots.
	if res.Control[0] < 0 || res.Control[1] < 0 {
		t.Errorf("heavy tasks lost their control slots: %v", res.Control)
	}
	if res.Control[2] >= 0 || res.Control[3] >= 0 {
		t.Errorf("light tasks got control slots: %v", res.Control)
	}
}

func TestMapUnmappedStrategy(t *testing.T) {
	tree := mustTree(t, 2, 2) // 4 cores, 4 tasks, no SMT -> nothing spare
	m := comm.Ring(4, 10)
	res, err := Map(Target{Tree: tree, SMTWays: 1}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlUnmapped {
		t.Fatalf("strategy = %v, want unmapped", res.Strategy)
	}
	for i, c := range res.Control {
		if c != -1 {
			t.Errorf("control[%d] = %d, want -1", i, c)
		}
	}
}

func TestMapOversubscribedKeepsControlUnmapped(t *testing.T) {
	tree := mustTree(t, 2, 2) // 4 cores, 9 tasks
	m := comm.Ring(9, 10)
	res, err := Map(Target{Tree: tree, SMTWays: 1}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlUnmapped {
		t.Errorf("strategy = %v, want unmapped under oversubscription", res.Strategy)
	}
	if res.VirtualArity != 3 {
		t.Errorf("VirtualArity = %d, want 3", res.VirtualArity)
	}
}

func TestMapArgumentErrors(t *testing.T) {
	tree := mustTree(t, 2)
	if _, err := Map(Target{Tree: nil, SMTWays: 1}, comm.New(2), Options{}); err == nil {
		t.Errorf("nil tree accepted")
	}
	if _, err := Map(Target{Tree: tree, SMTWays: 0}, comm.New(2), Options{}); err == nil {
		t.Errorf("zero SMTWays accepted")
	}
}

func TestControlStrategyString(t *testing.T) {
	if ControlHyperthread.String() != "hyperthread" ||
		ControlSpareCores.String() != "spare-cores" ||
		ControlUnmapped.String() != "unmapped" {
		t.Errorf("strategy names wrong")
	}
	if ControlStrategy(9).String() == "" {
		t.Errorf("out-of-range strategy empty")
	}
}

// TestMapSpareCoresOverflowingRow: a task whose row volume overflows to
// +Inf still gets its control entity, weighted with the largest volume
// AddSym takes, instead of a rejected infinite one.
func TestMapSpareCoresOverflowingRow(t *testing.T) {
	tree := mustTree(t, 2, 4) // 8 cores, 3 tasks -> 3 spare cores
	m := comm.New(3)
	m.AddSym(0, 1, math.MaxFloat64)
	m.AddSym(0, 2, math.MaxFloat64)
	if !math.IsInf(m.RowVolume(0), 1) {
		t.Fatalf("row volume %v, want +Inf", m.RowVolume(0))
	}
	res, err := Map(Target{Tree: tree, SMTWays: 1}, m, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if res.Strategy != ControlSpareCores || res.Control[0] < 0 {
		t.Fatalf("strategy %v, control of task 0 on %d: want it on a spare core", res.Strategy, res.Control[0])
	}
}
