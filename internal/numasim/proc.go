package numasim

import (
	"fmt"
	"math/rand"
)

// Proc is a simulated execution context (one software thread) with a virtual
// clock in CPU cycles. A Proc is either bound to a fixed PU — the effect of
// the paper's placement module — or unbound, in which case a seeded,
// simulated OS scheduler assigns it a PU and may migrate it whenever the
// workload reaches a scheduling point (Reschedule).
//
// A Proc has no lock: it belongs to the single goroutine that drives its
// task, and only that goroutine may call its methods while the task runs.
// Any other goroutine may use it only while the owner is quiescent and a
// synchronization edge orders the two — an ORWL epoch barrier clocks and
// rebinds parked tasks under its own mutex, Makespan and Stats are read
// after the run's goroutines have been joined, and an OpenMP team drives
// all of its Procs from the caller's goroutine. Cross-Proc interactions
// (lock handoffs) go through AdvanceTo with times published under the
// location's lock.
type Proc struct {
	m *Machine

	pu    int  // current PU, -1 if not yet scheduled
	bound bool // placement fixed by the mapping module
	cold  bool // caches invalidated by a migration
	clock float64
	rng   *rand.Rand // draws from src
	name  string
	stats ProcStats
	src   *replaySource // the simulated OS scheduler's stream, nil if created bound
}

// ProcStats accumulates per-Proc accounting, exposed for tests and traces.
type ProcStats struct {
	ComputeCycles  float64
	MemoryCycles   float64
	TransferCycles float64
	WaitCycles     float64
	Migrations     int
	BytesMoved     float64
}

// NewProc creates a Proc bound to the given PU. Bound Procs never migrate;
// their core occupancy participates in the SMT compute-inflation model.
func (m *Machine) NewProc(name string, pu int) (*Proc, error) {
	if pu < 0 || pu >= m.topo.NumPUs() {
		return nil, fmt.Errorf("numasim: PU %d out of range [0,%d)", pu, m.topo.NumPUs())
	}
	m.bindPU(pu, +1)
	return &Proc{m: m, pu: pu, bound: true, name: name}, nil
}

// NewUnboundProc creates a Proc managed by the simulated OS scheduler: it
// starts on a seed-determined PU and migrates to a new uniformly random PU
// at every Reschedule call, modelling an affinity-blind runtime. The seed
// makes runs reproducible: the Proc draws the stream of
// rand.New(rand.NewSource(seed)), replayed without its register (rng.go).
func (m *Machine) NewUnboundProc(name string, seed int64) *Proc {
	src := new(replaySource)
	src.Seed(seed)
	p := &Proc{m: m, pu: -1, bound: false, name: name, src: src, rng: rand.New(src)}
	p.pu = p.rng.Intn(m.topo.NumPUs())
	return p
}

// Name returns the Proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// PU returns the PU the Proc currently runs on.
func (p *Proc) PU() int { return p.pu }

// Bound reports whether the Proc was pinned by the placement module.
func (p *Proc) Bound() bool { return p.bound }

// Clock returns the Proc's virtual time in cycles.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the Proc's accounting counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// Compute charges the given number of floating-point operations.
func (p *Proc) Compute(flops float64) {
	if flops <= 0 {
		return
	}
	c := float64(flops / p.m.cfg.FlopsPerCycle * p.m.computeInflation(p.pu))
	p.clock += c
	p.stats.ComputeCycles += c
}

// ComputeCycles charges raw cycles (for costs already expressed in cycles).
func (p *Proc) ComputeCycles(cycles float64) {
	if cycles <= 0 {
		return
	}
	p.clock += cycles
	p.stats.ComputeCycles += cycles
}

// MemRead charges the cost of streaming the given number of bytes of the
// region into the Proc; its first access resolves a first-touch region's
// home. The model prices reads and writes identically (write-allocate caches
// move the same lines both ways).
func (p *Proc) MemRead(r *Region, bytes float64) {
	if bytes <= 0 {
		return
	}
	node := r.touch(p.pu)
	var c float64
	if node < 0 { // interleaved: average the cost over all nodes
		n := p.m.topo.NumNUMANodes()
		per := bytes / float64(n)
		for i := 0; i < n; i++ {
			c += p.m.memCostCycles(p.pu, i, per)
		}
	} else {
		c = p.m.memCostCycles(p.pu, node, bytes)
	}
	p.clock += c
	p.stats.MemoryCycles += c
	p.stats.BytesMoved += bytes
}

// SweepWorkingSet charges one full sweep over a working set of the region:
// bytes scaled by the PU's cache miss factor, so sets that fit in the
// Proc's cache share cost only their escaping fraction. A cold Proc (just
// migrated) pays the full traffic once and becomes warm.
func (p *Proc) SweepWorkingSet(r *Region, workingSet int64) {
	factor := p.m.MissFactor(p.pu, workingSet)
	if p.cold {
		factor = 1
		p.cold = false
	}
	p.MemRead(r, float64(workingSet)*factor)
}

// AdvanceTo moves the Proc's clock forward to at least t cycles, recording
// the difference as wait time. It never moves the clock backwards. Used for
// lock grants: the new holder cannot proceed before the grant time.
func (p *Proc) AdvanceTo(t float64) {
	if t > p.clock {
		p.stats.WaitCycles += t - p.clock
		p.clock = t
	}
}

// ChargeTransfer adds a transfer cost (computed by Machine.TransferCost) to
// the Proc's clock.
func (p *Proc) ChargeTransfer(cycles float64) {
	if cycles <= 0 {
		return
	}
	p.clock += cycles
	p.stats.TransferCycles += cycles
}

// Reschedule is a scheduling point: a bound Proc ignores it; an unbound Proc
// is migrated to a new uniformly random PU with the given probability,
// paying the migration penalty and losing cache warmth. The paper's NoBind
// and OpenMP configurations call this at iteration boundaries.
func (p *Proc) Reschedule(migrationProbability float64) {
	if p.bound || p.rng == nil {
		return
	}
	if p.rng.Float64() >= migrationProbability {
		return
	}
	newPU := p.rng.Intn(p.m.topo.NumPUs())
	if newPU == p.pu {
		return
	}
	p.pu = newPU
	p.cold = true
	p.clock += p.m.cfg.MigrationPenaltyCycles
	p.stats.Migrations++
}

// MigrateTo moves the Proc to the given PU mid-run and prices the move: the
// migration penalty (pipeline drain + scheduler latency) is charged to the
// Proc's clock, its caches go cold (the next working-set sweep pays full
// traffic), and the move pins the Proc there (an adaptive placement decision
// is a binding). Moving to the current PU of an already-bound Proc is free.
// This is the cost model behind epoch-based re-placement: adapting is never
// free, so an engine must weigh the predicted gain against this price (see
// Machine.MigrationCostCycles).
func (p *Proc) MigrateTo(pu int) error {
	return p.move(pu, true)
}

// PlaceAt moves the Proc to the given PU without charging anything: the
// oracle variant of MigrateTo, used to bound how much an adaptive engine
// could gain if migration were free. The move still pins the Proc and still
// counts in the migration statistics, but the clock and cache state are
// untouched.
func (p *Proc) PlaceAt(pu int) error {
	return p.move(pu, false)
}

// move pins the Proc to pu, charging the migration penalty and invalidating
// the caches when charged is true.
func (p *Proc) move(pu int, charged bool) error {
	if pu < 0 || pu >= p.m.topo.NumPUs() {
		return fmt.Errorf("numasim: PU %d out of range [0,%d)", pu, p.m.topo.NumPUs())
	}
	if pu == p.pu {
		if !p.bound {
			p.bound = true
			p.m.bindPU(pu, +1)
		}
		return nil
	}
	if p.bound {
		p.m.bindPU(p.pu, -1)
	}
	p.m.bindPU(pu, +1)
	p.bound = true
	p.pu = pu
	if charged {
		p.cold = true
		p.clock += p.m.cfg.MigrationPenaltyCycles
	}
	p.stats.Migrations++
	return nil
}

// MigrateRegion re-homes a region onto the Proc's current NUMA node,
// charging the Proc one full stream of the region from its old home (the
// page-migration copy). Re-homing a region already local to the Proc is
// free. Interleaved regions cannot be re-homed. When the old home's cluster
// node has been killed by a fault event, memCostCycles prices the copy as a
// stream from the checkpoint node instead — an evacuation re-materializes
// lost data from surviving storage, it cannot pull from the dead node.
func (p *Proc) MigrateRegion(r *Region) error {
	if r.Policy() == Interleaved {
		return fmt.Errorf("numasim: cannot re-home interleaved region %q", r.Name())
	}
	node := p.m.nodeOf[p.pu]
	old := r.Home()
	if old == node {
		return nil
	}
	// An untouched first-touch region has no pages to copy; otherwise the
	// copy streams from the old home (resolved before the region moves).
	if old >= 0 {
		p.MemRead(r, float64(r.Bytes()))
	}
	return r.MoveTo(node)
}

// Release unbinds a bound Proc from its core's occupancy accounting. Call
// when the task exits; required only when Procs are created and destroyed
// repeatedly on one Machine.
func (p *Proc) Release() {
	if p.bound {
		p.m.bindPU(p.pu, -1)
		p.bound = false
	}
}

// Makespan returns the maximum clock, in cycles, over the given Procs: the
// virtual completion time of the parallel phase they executed.
func Makespan(procs []*Proc) float64 {
	var mx float64
	for _, p := range procs {
		if c := p.Clock(); c > mx {
			mx = c
		}
	}
	return mx
}
