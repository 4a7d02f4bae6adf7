package numasim

import (
	"math"
	"sync"
	"testing"
)

// TestMachineConcurrentPricing pins the Machine's concurrency contract: Procs
// on their own goroutines price transfers, migrations and checkpoints, and
// charge compute and sweeps (one region shared, so first touches race too),
// while another goroutine redeclares every contention count and binds and
// releases Procs on the same Machine. Under -race it fails as soon as any of
// that state is read or written other than through an atomic.
func TestMachineConcurrentPricing(t *testing.T) {
	m := smallMachine(t, "rack:2 node:2 pack:2 core:2 pu:2")
	pus, nodes := m.Topology().NumPUs(), m.Topology().NumNUMANodes()
	shared := m.AllocFirstTouch("shared", 1<<20)

	started, stop := make(chan struct{}), make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		c := Contention{Accessors: make([]int, nodes), Edges: make([]int, m.FabricGraph().NumEdges())}
		for i := 0; ; i++ {
			c.Accessors[i%nodes] = 1 + i%4
			c.Remote = i % 8
			for e := range c.Edges {
				c.Edges[e] = 1 + (i+e)%3
			}
			m.Declare(c)
			p, err := m.NewProc("churn", i%pus)
			if err != nil {
				t.Error(err)
				return
			}
			p.Release()
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Workers start after the writer's first pass, so its later passes are
	// unordered with their pricing at any GOMAXPROCS.
	<-started
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := m.NewProc("worker", w*pus/workers)
			if err != nil {
				t.Error(err)
				return
			}
			defer p.Release()
			own := m.AllocFirstTouch("own", 1<<16)
			for i := 0; i < 200; i++ {
				from, to := (w+i)%pus, (3*w+7*i)%pus
				for _, c := range []float64{
					m.TransferCost(from, to, 4096),
					m.MigrationCostCycles(from, to, 4096),
					m.CheckpointCostCycles(from, 4096),
				} {
					if !(c >= 0) || math.IsInf(c, 0) {
						t.Errorf("worker %d: price %v for PUs %d→%d", w, c, from, to)
						return
					}
				}
				p.Compute(1000)
				p.SweepWorkingSet(own, 1<<16)
				p.SweepWorkingSet(shared, 1<<12)
			}
			if got := own.Home(); got != m.NodeOfPU(p.PU()) {
				t.Errorf("worker %d: own region homed on node %d, want %d", w, got, m.NodeOfPU(p.PU()))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	// First touch wins: the shared region lives where one of the workers is.
	home := shared.Home()
	for w := 0; w < workers; w++ {
		if home == m.NodeOfPU(w*pus/workers) {
			return
		}
	}
	t.Errorf("shared region homed on node %d, no worker's node", home)
}

// TestDeclareIsNeverTorn pins that one price reads one whole declaration: a
// writer alternates between two declarations A and B that differ in every
// field, while workers price a cross-socket transfer (the node's accessors
// and the interconnect's remote streams) and a cross-node one (the node's
// accessors and the fabric edges). Every price must be A's or B's. The
// declarations are chosen so that a price mixing B's accessors with A's
// remote streams, or A's accessors with B's edges, differs from both.
func TestDeclareIsNeverTorn(t *testing.T) {
	m := smallMachine(t, "node:2 pack:2 core:1 pu:1")
	nodes, edges := m.Topology().NumNUMANodes(), m.FabricGraph().NumEdges()
	fill := func(n, v int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	a := Contention{Accessors: fill(nodes, 8), Remote: 1, Edges: fill(edges, 64)}
	b := Contention{Accessors: fill(nodes, 1), Remote: 100, Edges: fill(edges, 1)}
	const bytes = 1 << 20
	socket := func() float64 { return m.TransferCost(0, 1, bytes) } // PUs 0 and 1: two sockets of node 0
	node := func() float64 { return m.TransferCost(0, 2, bytes) }   // PU 2: node 1
	priced := func(c Contention) (float64, float64) {
		m.Declare(c)
		return socket(), node()
	}
	sockA, nodeA := priced(a)
	sockB, nodeB := priced(b)
	sockTorn, _ := priced(Contention{Accessors: b.Accessors, Remote: a.Remote, Edges: a.Edges})
	_, nodeTorn := priced(Contention{Accessors: a.Accessors, Remote: a.Remote, Edges: b.Edges})
	if sockTorn == sockA || sockTorn == sockB || nodeTorn == nodeA || nodeTorn == nodeB {
		t.Fatalf("a torn declaration prices like a whole one: cross-socket A %v B %v torn %v, cross-node A %v B %v torn %v",
			sockA, sockB, sockTorn, nodeA, nodeB, nodeTorn)
	}

	m.Declare(a)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				m.Declare(a)
			} else {
				m.Declare(b)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if got := socket(); got != sockA && got != sockB {
					t.Errorf("cross-socket price %v is neither A's %v nor B's %v", got, sockA, sockB)
					return
				}
				if got := node(); got != nodeA && got != nodeB {
					t.Errorf("cross-node price %v is neither A's %v nor B's %v", got, nodeA, nodeB)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}
