package orwl

import (
	"strings"
	"testing"
)

func TestHandleLifecycleErrors(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	task := rt.AddTask("t", nil)
	h := task.NewHandle(loc, Write)

	// Acquire before Request.
	if err := h.Acquire(); err == nil {
		t.Errorf("Acquire without Request succeeded")
	}
	// Release before Acquire.
	if err := h.Release(); err == nil {
		t.Errorf("Release without Acquire succeeded")
	}
	if err := h.Request(); err != nil {
		t.Fatal(err)
	}
	// Double request.
	if err := h.Request(); err == nil {
		t.Errorf("double Request succeeded")
	}
	// Release while only Requested.
	if err := h.Release(); err == nil {
		t.Errorf("Release in Requested state succeeded")
	}
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	// Double acquire.
	if err := h.Acquire(); err == nil {
		t.Errorf("double Acquire succeeded")
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	// Double release.
	if err := h.Release(); err == nil {
		t.Errorf("double Release succeeded")
	}
}

func TestDataOutsideCriticalSection(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	loc.SetData([]float64{1})
	h := rt.AddTask("t", nil).NewHandle(loc, Read)
	if _, err := h.Data(); err == nil {
		t.Errorf("Data before acquire succeeded")
	}
	if err := h.Request(); err != nil {
		t.Fatal(err)
	}
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Data(); err != nil {
		t.Errorf("Data while acquired failed: %v", err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Data(); err == nil {
		t.Errorf("Data after release succeeded")
	}
}

func TestFloat64sTypeMismatch(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	loc.SetData("not floats")
	h := rt.AddTask("t", nil).NewHandle(loc, Read)
	if err := h.Request(); err != nil {
		t.Fatal(err)
	}
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Float64s(); err == nil || !strings.Contains(err.Error(), "not []float64") {
		t.Errorf("type mismatch not reported: %v", err)
	}
	// Nil payload is returned as nil without error.
	loc.SetData(nil)
	d, err := h.Float64s()
	if err != nil || d != nil {
		t.Errorf("nil payload: %v, %v", d, err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleAccessors(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 128)
	task := rt.AddTask("t", nil)
	h := task.NewHandleVol(loc, Read, 32, 2)
	if h.Location() != loc || h.Mode() != Read || h.vol != 32 {
		t.Errorf("accessors wrong: %v %v %v", h.Location(), h.Mode(), h.vol)
	}
	if h.State() != Idle {
		t.Errorf("fresh state = %v", h.State())
	}
	hd := task.NewHandle(loc, Write)
	if hd.vol != 128 {
		t.Errorf("default volume = %v, want location size", hd.vol)
	}
}

func TestCancelRequest(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	a := rt.AddTask("a", nil).NewHandle(loc, Write)
	b := rt.AddTask("b", nil).NewHandle(loc, Write)
	if err := a.Request(); err != nil {
		t.Fatal(err)
	}
	if err := b.Request(); err != nil {
		t.Fatal(err)
	}
	// Cancelling the head grants the next in line.
	if err := a.cancelRequest(); err != nil {
		t.Fatal(err)
	}
	if a.State() != Idle {
		t.Errorf("state after cancel = %v", a.State())
	}
	if err := b.Acquire(); err != nil {
		t.Fatalf("b not granted after cancel: %v", err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	// Cancelling an idle handle is a no-op.
	if err := a.cancelRequest(); err != nil {
		t.Errorf("idle cancel errored: %v", err)
	}
}
