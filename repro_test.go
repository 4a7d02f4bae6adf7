package repro

import "testing"

func TestFacadeSystem(t *testing.T) {
	sys, err := NewSystem(SystemOptions{TopologySpec: "pack:2 core:2 pu:1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := sys.Runtime()
	loc := rt.NewLocation("x", 8)
	loc.SetData([]float64{0})
	task := rt.AddTask("t", func(task *Task) error {
		h := task.Handle(0)
		if err := h.Acquire(); err != nil {
			return err
		}
		v, err := h.Float64s()
		if err != nil {
			return err
		}
		v[0] = 42
		return h.Release()
	})
	task.NewHandle(loc, Write)
	if err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := loc.PeekData().([]float64)[0]; got != 42 {
		t.Errorf("location = %v, want 42", got)
	}
}
