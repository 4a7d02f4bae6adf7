// Package omp implements an OpenMP-like fork-join runtime: teams of worker
// threads executing parallel-for loops under static, dynamic or guided
// scheduling. It is the baseline the paper compares ORWL against ("OpenMP
// of equivalent abstraction").
//
// The crucial property of this baseline — and the reason it falls behind on
// large NUMA machines (paper Fig. 1) — is that it is affinity-blind: worker
// threads are unbound, so the simulated OS re-places them at every parallel
// region, while the data stays where it was first touched.
//
// Execution modes mirror the ORWL runtime: with a numasim.Machine attached,
// loops execute in deterministic virtual time (chunks are dispatched to the
// worker with the earliest clock, exactly what a work-stealing runtime
// converges to); without a machine, loops run on real goroutines.
package omp

import (
	"fmt"
	"sync"

	"repro/internal/numasim"
)

// Schedule selects the loop-scheduling policy of ParallelFor.
type Schedule int

const (
	// Static divides the iteration space into equal contiguous ranges, one
	// per thread (chunk == 0), or round-robins fixed-size chunks.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks on demand.
	Dynamic
	// Guided hands out exponentially shrinking chunks (never smaller than
	// the chunk parameter).
	Guided
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Team is a set of worker threads executing parallel regions.
type Team struct {
	mach  *numasim.Machine
	n     int
	procs []*numasim.Proc
	// MigrationProbability applies at every parallel region (default 0.25,
	// the same OS model as ORWL NoBind).
	MigrationProbability float64
	// BarrierCycles is the per-thread cost of the implicit barrier ending
	// each parallel region (default 2000 cycles, a typical centralized
	// OpenMP barrier on a large SMP).
	BarrierCycles float64
}

// NewTeam creates a team of n unbound threads, the plain OpenMP
// configuration of the paper. mach may be nil for real execution.
func NewTeam(mach *numasim.Machine, n int, seed int64) (*Team, error) {
	if n <= 0 {
		return nil, fmt.Errorf("omp: team size %d must be positive", n)
	}
	t := &Team{mach: mach, n: n, MigrationProbability: 0.25, BarrierCycles: 2000}
	if mach != nil {
		for i := 0; i < n; i++ {
			t.procs = append(t.procs, mach.NewUnboundProc(fmt.Sprintf("omp%d", i), seed+int64(i)*104729))
		}
	}
	return t, nil
}

// Size returns the number of threads in the team.
func (t *Team) Size() int { return t.n }

// Proc returns thread tid's simulated execution context (nil without a
// machine). Loop bodies use it to charge compute and memory costs.
func (t *Team) Proc(tid int) *numasim.Proc {
	if t.procs == nil {
		return nil
	}
	return t.procs[tid]
}

// MakespanCycles returns the maximum virtual clock over the team.
func (t *Team) MakespanCycles() float64 { return numasim.Makespan(t.procs) }

// MakespanSeconds returns the simulated execution time in seconds.
func (t *Team) MakespanSeconds() float64 {
	if t.mach == nil {
		return 0
	}
	return t.mach.CyclesToSeconds(t.MakespanCycles())
}

// Body is a loop body invoked on half-open index ranges [lo, hi) with the
// executing thread's id.
type Body func(lo, hi, tid int)

// chunkList builds the dispatch order of a loop's chunks.
func chunkList(lo, hi, chunk, n int, sched Schedule) [][2]int {
	var chunks [][2]int
	switch sched {
	case Static:
		if chunk <= 0 {
			// One contiguous range per thread.
			total := hi - lo
			for i := 0; i < n; i++ {
				a := lo + i*total/n
				b := lo + (i+1)*total/n
				if a < b {
					chunks = append(chunks, [2]int{a, b})
				}
			}
			return chunks
		}
		fallthrough
	case Dynamic:
		if chunk <= 0 {
			chunk = 1
		}
		for a := lo; a < hi; a += chunk {
			b := a + chunk
			if b > hi {
				b = hi
			}
			chunks = append(chunks, [2]int{a, b})
		}
	case Guided:
		if chunk <= 0 {
			chunk = 1
		}
		remaining := hi - lo
		a := lo
		for remaining > 0 {
			c := remaining / (2 * n)
			if c < chunk {
				c = chunk
			}
			if c > remaining {
				c = remaining
			}
			chunks = append(chunks, [2]int{a, a + c})
			a += c
			remaining -= c
		}
	}
	return chunks
}

// ParallelFor executes body over [lo, hi) with the given schedule, then
// joins at an implicit barrier. With a machine attached the execution is
// virtual-time deterministic: each chunk goes to the thread with the
// earliest clock (ties to the lowest tid), and the barrier advances every
// thread to the region's completion time. Threads hit a scheduling point at
// every region, where the simulated OS may migrate them.
func (t *Team) ParallelFor(lo, hi, chunk int, sched Schedule, body Body) {
	if hi <= lo {
		return
	}
	if t.mach != nil {
		t.virtualFor(lo, hi, chunk, sched, body)
		return
	}
	t.realFor(lo, hi, chunk, sched, body)
}

// virtualFor runs the loop in deterministic virtual time on the caller's
// goroutine.
func (t *Team) virtualFor(lo, hi, chunk int, sched Schedule, body Body) {
	// Region entry is a scheduling point for the unbound threads.
	for _, p := range t.procs {
		p.Reschedule(t.MigrationProbability)
	}
	chunks := chunkList(lo, hi, chunk, t.n, sched)
	if sched == Static && chunk <= 0 {
		// chunkList produced exactly one range per thread, in tid order.
		for tid, c := range chunks {
			body(c[0], c[1], tid)
		}
	} else {
		for _, c := range chunks {
			// Earliest-clock dispatch: what dynamic scheduling converges to.
			tid := 0
			best := t.procs[0].Clock()
			for i := 1; i < t.n; i++ {
				if c := t.procs[i].Clock(); c < best {
					best, tid = c, i
				}
			}
			body(c[0], c[1], tid)
		}
	}
	// Implicit barrier: everyone waits for the slowest, then pays the
	// barrier cost.
	join := numasim.Makespan(t.procs)
	for _, p := range t.procs {
		p.AdvanceTo(join)
		p.ComputeCycles(t.BarrierCycles)
	}
}

// realFor runs the loop on real goroutines (no virtual time).
func (t *Team) realFor(lo, hi, chunk int, sched Schedule, body Body) {
	chunks := chunkList(lo, hi, chunk, t.n, sched)
	if sched == Static && chunk <= 0 {
		var wg sync.WaitGroup
		for tid, c := range chunks {
			wg.Add(1)
			go func(tid int, c [2]int) {
				defer wg.Done()
				body(c[0], c[1], tid)
			}(tid, c)
		}
		wg.Wait()
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tid := 0; tid < t.n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(chunks) {
					mu.Unlock()
					return
				}
				c := chunks[next]
				next++
				mu.Unlock()
				body(c[0], c[1], tid)
			}
		}(tid)
	}
	wg.Wait()
}
