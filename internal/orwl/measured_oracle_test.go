package orwl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
)

// measuredOracle is the traffic accounting the runtime had before the
// per-task counters: one runtime-wide map and one window matrix, both fed
// under one lock in goroutine arrival order, the window replaced by an empty
// one at every epoch. Runtime.grantTap feeds it the grants of the run under
// test.
type measuredOracle struct {
	measuredMu sync.Mutex
	measured   map[[2]int]float64
	window     *comm.Matrix
}

func (rt *measuredOracle) recordComm(from, to int, vol float64) {
	rt.measuredMu.Lock()
	defer rt.measuredMu.Unlock()
	if rt.measured == nil {
		rt.measured = make(map[[2]int]float64)
	}
	rt.measured[[2]int{from, to}] += vol
	rt.window.AddSym(from, to, vol)
}

// roll returns the window accumulated since the previous roll and starts an
// empty one.
func (rt *measuredOracle) roll() *comm.Matrix {
	rt.measuredMu.Lock()
	defer rt.measuredMu.Unlock()
	w := rt.window
	rt.window = comm.New(w.Order())
	return w
}

func (rt *measuredOracle) MeasuredCommMatrix(n int) *comm.Matrix {
	m := comm.New(n)
	rt.measuredMu.Lock()
	for pair, vol := range rt.measured {
		m.AddSym(pair[0], pair[1], vol)
	}
	rt.measuredMu.Unlock()
	return m
}

// oracleProgram adds n tasks to rt: task i reads the locations of reads[i]
// (rank 0) and then writes its own (rank 1) — the Jacobi cycle, deadlock-free
// for any read graph — calling EndIteration once per iteration. Volumes are
// whole bytes, so every summation order is exact. Halfway through, task 0
// triples the volume of its first read: the mid-run shift a window exists to
// see.
func oracleProgram(rt *Runtime, reads [][]int, vols [][]float64, iters int) {
	n := len(reads)
	locs := make([]*Location, n)
	for i := range locs {
		locs[i] = rt.NewLocation(fmt.Sprintf("l%d", i), 64)
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask(fmt.Sprintf("t%d", i), nil)
		for k, j := range reads[i] {
			task.NewHandleVol(locs[j], Read, vols[i][k], 0)
		}
		task.NewHandleVol(locs[i], Write, 64, 1)
		task.SetFunc(func(tk *Task) error {
			for it := 0; it < iters; it++ {
				if tk.ID() == 0 && it == iters/2 {
					tk.Handle(0).SetVolume(3 * tk.Handle(0).vol)
				}
				for _, h := range tk.Handles() {
					if err := h.Acquire(); err != nil {
						return err
					}
					if err := h.ReleaseOrNext(it == iters-1); err != nil {
						return err
					}
				}
				tk.EndIteration()
			}
			return nil
		})
	}
}

// TestMeasuredMatchesOracle is the differential test of the per-task traffic
// counters: MeasuredCommMatrix and the window of every epoch must equal, to
// the last bit, what the old global accounting makes of the same grants.
func TestMeasuredMatchesOracle(t *testing.T) {
	ring := func(n int) (reads [][]int, vols [][]float64) {
		for i := 0; i < n; i++ {
			reads = append(reads, []int{(i + n - 1) % n})
			vols = append(vols, []float64{float64(8 * (i + 1))})
		}
		return
	}
	stencil := func(side int) (reads [][]int, vols [][]float64) {
		id := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				reads = append(reads, []int{id(x+1, y), id(x-1, y), id(x, y+1), id(x, y-1)})
				vols = append(vols, []float64{16, 16, 128, 128})
			}
		}
		return
	}
	random := func(n int, seed int64) (reads [][]int, vols [][]float64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			var r []int
			var v []float64
			for _, j := range rng.Perm(n)[:1+rng.Intn(5)] {
				if j != i {
					r = append(r, j)
					v = append(v, float64(1+rng.Intn(4096)))
				}
			}
			if r == nil {
				r, v = []int{(i + 1) % n}, []float64{24}
			}
			reads, vols = append(reads, r), append(vols, v)
		}
		return
	}
	programs := []struct {
		name  string
		build func() ([][]int, [][]float64)
	}{
		{"ring", func() ([][]int, [][]float64) { return ring(6) }},
		{"stencil", func() ([][]int, [][]float64) { return stencil(4) }},
		{"random", func() ([][]int, [][]float64) { return random(13, 3) }},
	}
	const iters = 13 // one iteration past the last epoch of either interval
	for _, prog := range programs {
		for _, interval := range []int{1, 3} {
			// The window resets every epoch.
			t.Run(fmt.Sprintf("%s/decay=0/every=%d", prog.name, interval), func(t *testing.T) {
				reads, vols := prog.build()
				n := len(reads)
				rt := simRuntime(t, "pack:2 l3:1 core:4 pu:1", 1)
				oracleProgram(rt, reads, vols, iters)
				for _, task := range rt.Tasks() {
					if err := rt.Bind(task, task.ID()%8); err != nil {
						t.Fatal(err)
					}
				}
				oracle := &measuredOracle{window: comm.New(n)}
				rt.grantTap = oracle.recordComm
				epochs := 0
				err := rt.ConfigureEpochs(interval, func(ep *Epoch) {
					epochs++
					if want := oracle.roll(); !ep.Window().Equal(want, 0) {
						t.Errorf("epoch %d: window differs from the oracle's", ep.Index())
					}
					// The hook is one of the two places the counters may
					// be read from.
					if !rt.MeasuredCommMatrix().Equal(oracle.MeasuredCommMatrix(n), 0) {
						t.Errorf("epoch %d: MeasuredCommMatrix differs from the oracle's", ep.Index())
					}
					if ep.Index() == 2 {
						if err := ep.Rebind(ep.Tasks()[0], 7); err != nil {
							t.Error(err)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Run(); err != nil {
					t.Fatal(err)
				}
				if epochs != iters/interval {
					t.Errorf("%d epochs ran, want %d", epochs, iters/interval)
				}
				measured := rt.MeasuredCommMatrix()
				if !measured.Equal(oracle.MeasuredCommMatrix(n), 0) {
					t.Errorf("MeasuredCommMatrix differs from the oracle's")
				}
				if measured.TotalVolume() == 0 {
					t.Errorf("the run recorded no traffic")
				}
			})
		}
	}
}
