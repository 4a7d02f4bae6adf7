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
		counts := make([]int, m.FabricGraph().NumEdges())
		for i := 0; ; i++ {
			m.SetAccessors(i%nodes, 1+i%4)
			m.SetRemoteStreams(i % 8)
			for e := range counts {
				counts[e] = 1 + (i+e)%3
			}
			m.SetEdgeStreams(counts)
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
