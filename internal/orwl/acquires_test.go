package orwl_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
	"repro/internal/orwl"
)

// TestStencilAcquireCount pins the lock work of a small block stencil,
// counted through the Trace hook: every task acquires each of its handles
// once per iteration. A 4×4 block grid has 16 main tasks holding their block
// plus 84 neighbour strips (the in-grid 8-neighbourhoods), and 128 frontier
// tasks holding two handles each, so 356 handles and 5 × 356 acquires.
func TestStencilAcquireCount(t *testing.T) {
	var acquires atomic.Int64
	rt := orwl.NewRuntime(orwl.Options{Trace: func(ev orwl.TraceEvent) {
		if ev.Op == "acquire" {
			acquires.Add(1)
		}
	}})
	if _, err := kernels.Build(rt, 64, 64, kernels.BuildOptions{BX: 4, BY: 4, Iters: 5, Costs: kernels.LK23Costs}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := acquires.Load(); got != 5*356 {
		t.Errorf("%d acquires, want %d", got, 5*356)
	}
}
