package orwl

import (
	"testing"

	"repro/internal/numasim"
	"repro/internal/topology"
)

// The analytical-twin test: a producer/consumer halo exchange small enough
// to price by hand, run against the full runtime + simulator stack, with
// EXACT integer equality required between the closed form and
// Runtime.MakespanCycles. Any drift in the pricing model — an extra control
// event, a latency applied twice, a bandwidth shared with a phantom stream —
// breaks the equality rather than shifting a float by an unnoticed epsilon.
//
// The program: one location L of V bytes; task A writes it (rank 1), task B
// reads it (rank 0), K iterations of Acquire → Compute → ReleaseAndRequest
// (plain Release on the last). B's initial request is inserted first, so the
// steady state is the strict alternation B₁ A₁ B₂ A₂ … B_K A_K — a serial
// dependence chain whose makespan is the sum of its per-step charges:
//
//	B₁:  m₀ + c + G        first grant streams L from memory (home = A's
//	                       node, the first writer), plus one control event
//	                       and B's compute
//	Aₖ:  T + c + F         handoff B→A: one cross-placement transfer of V
//	Bₖ:  T + c + G (k ≥ 2)  handoff A→B, same price by symmetry
//
// so with both tasks placed across the boundary (m₀ = T):
//
//	makespan = 2K·T + 2K·c + K·(F + G)
//
// The physical constants below are chosen integer-friendly (1 GHz clock,
// bandwidths that divide V exactly), so every term is an exact integer and
// float64 accumulates it exactly.
func twinAttrs() topology.Defaults {
	return topology.Defaults{
		ClockHz:   1e9,
		L1Size:    32 << 10,
		L2Size:    256 << 10,
		L1Latency: 4,
		L2Latency: 12,
		// 100-cycle local memory latency, 1 B/cycle node bandwidth.
		MemLatencyCycles: 100,
		MemBandwidth:     1e9,
		// Inter-socket links at node bandwidth; the hop-distance scaling
		// (÷4 at the 4-hop cross-socket distance) makes the effective
		// cross-socket stream 0.25 B/cycle.
		LinkBandwidth: 1e9,
		// Cluster NICs: 1000 cycles per link, 0.25 B/cycle.
		NetLatencyCycles: 1000,
		NetBandwidth:     2.5e8,
	}
}

const (
	twinV     = 1 << 20                // location size = handle volume, bytes
	twinK     = 3                      // iterations per task
	twinF     = 250_000                // A's per-iteration flops (1 flop/cycle)
	twinG     = 125_000                // B's per-iteration flops
	twinCtlMu = 6 * controlEventCycles // one control event: 6× (control threads unmapped)
)

// twinMakespan runs the ping-pong on the given platform with A and B bound
// to the given PUs and returns the simulated makespan in cycles.
func twinMakespan(t *testing.T, spec string, puA, puB int) float64 {
	t.Helper()
	p, err := numasim.NewPlatformAttrs(spec, twinAttrs(), numasim.Config{FlopsPerCycle: 1})
	if err != nil {
		t.Fatalf("NewPlatformAttrs(%q): %v", spec, err)
	}
	rt := NewRuntime(Options{Machine: p.Machine()})
	loc := rt.NewLocation("halo", twinV)

	body := func(flops float64) func(*Task) error {
		return func(tk *Task) error {
			h := tk.Handle(0)
			for k := 0; k < twinK; k++ {
				if err := h.Acquire(); err != nil {
					return err
				}
				tk.Proc().Compute(flops)
				if k < twinK-1 {
					if err := h.ReleaseAndRequest(); err != nil {
						return err
					}
				} else if err := h.Release(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	a := rt.AddTask("A", body(twinF))
	b := rt.AddTask("B", body(twinG))
	a.NewHandleVol(loc, Write, twinV, 1)
	b.NewHandleVol(loc, Read, twinV, 0)
	if err := rt.Bind(a, puA); err != nil {
		t.Fatal(err)
	}
	if err := rt.Bind(b, puB); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rt.MakespanCycles()
}

// twinExpect is the closed form: 2K transfers at cost per-transfer cycles,
// 2K control events, K compute rounds of each task.
func twinExpect(transfer float64) float64 {
	return 2*twinK*transfer + 2*twinK*twinCtlMu + twinK*(twinF+twinG)
}

func TestAnalyticalTwinFlatMachine(t *testing.T) {
	// Two single-core sockets, each its own NUMA node. The cross-socket
	// access: hop distance 4 (socket→machine→socket through the NUMA level),
	// so latency 100·(1+4/2) = 300 cycles and link bandwidth scaled ÷4 to
	// 0.25 B/cycle → a V-byte stream costs 300 + 4V cycles.
	got := twinMakespan(t, "pack:2 core:1 pu:1", 0, 1)
	want := twinExpect(300 + 4*twinV)
	if got != want {
		t.Fatalf("flat-machine makespan = %v cycles, closed form says %v (Δ %v)", got, want, got-want)
	}
}

func TestAnalyticalTwinTwoNodeFabric(t *testing.T) {
	// Two single-socket cluster nodes behind one switch. The cross-node
	// access: local memory latency plus both NIC links (100 + 2·1000) and
	// the NIC-bottlenecked stream at 0.25 B/cycle → 2100 + 4V cycles.
	got := twinMakespan(t, "cluster:2 pack:1 core:1 pu:1", 0, 1)
	want := twinExpect(2100 + 4*twinV)
	if got != want {
		t.Fatalf("two-node-fabric makespan = %v cycles, closed form says %v (Δ %v)", got, want, got-want)
	}
	// The fabric run exceeds the flat run by exactly the latency difference
	// on the 2K serial transfers: the bandwidth terms cancel by construction.
	flat := twinMakespan(t, "pack:2 core:1 pu:1", 0, 1)
	if diff := got - flat; diff != 2*twinK*(2100-300) {
		t.Fatalf("fabric−flat = %v cycles, want exactly 2K·Δlatency = %v", diff, 2*twinK*(2100-300))
	}
}
