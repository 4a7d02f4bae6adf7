package topology

import (
	"strings"
	"testing"
)

func faultTestTopo(t *testing.T) *Topology {
	t.Helper()
	topo, err := FromSpec("rack:2 node:2 core:2")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	return topo
}

func TestFaultScheduleValidate(t *testing.T) {
	topo := faultTestTopo(t)
	g := topo.FabricGraph()
	if g == nil {
		t.Fatal("test topology has no fabric graph")
	}
	cases := []struct {
		name    string
		events  []FaultEvent
		wantErr string
	}{
		{"nil events", nil, ""},
		{"kill one node", []FaultEvent{{Epoch: 2, Kind: FaultKillNode, Node: 1}}, ""},
		{"degrade then sever later", []FaultEvent{
			{Epoch: 1, Kind: FaultDegradeEdge, Edge: 0, Factor: 0.5},
			{Epoch: 3, Kind: FaultSeverEdge, Edge: 0},
		}, ""},
		{"epoch zero", []FaultEvent{{Epoch: 0, Kind: FaultKillNode, Node: 0}}, "1-based"},
		{"unknown node", []FaultEvent{{Epoch: 1, Kind: FaultKillNode, Node: 99}}, "unknown cluster node"},
		{"negative node", []FaultEvent{{Epoch: 1, Kind: FaultKillNode, Node: -1}}, "unknown cluster node"},
		{"double kill", []FaultEvent{
			{Epoch: 1, Kind: FaultKillNode, Node: 2},
			{Epoch: 2, Kind: FaultKillNode, Node: 2},
		}, "already dead"},
		{"kill everything", []FaultEvent{
			{Epoch: 1, Kind: FaultKillNode, Node: 0},
			{Epoch: 1, Kind: FaultKillNode, Node: 1},
			{Epoch: 2, Kind: FaultKillNode, Node: 2},
			{Epoch: 2, Kind: FaultKillNode, Node: 3},
		}, "kills every cluster node"},
		{"unknown edge", []FaultEvent{{Epoch: 1, Kind: FaultSeverEdge, Edge: 99}}, "unknown fabric edge"},
		{"factor too big", []FaultEvent{{Epoch: 1, Kind: FaultDegradeEdge, Edge: 0, Factor: 1}}, "outside (0,1)"},
		{"factor zero", []FaultEvent{{Epoch: 1, Kind: FaultDegradeEdge, Edge: 0}}, "outside (0,1)"},
		{"two events one edge one epoch", []FaultEvent{
			{Epoch: 2, Kind: FaultDegradeEdge, Edge: 1, Factor: 0.5},
			{Epoch: 2, Kind: FaultSeverEdge, Edge: 1},
		}, "conflicting events"},
		{"event after sever", []FaultEvent{
			{Epoch: 1, Kind: FaultSeverEdge, Edge: 1},
			{Epoch: 3, Kind: FaultDegradeEdge, Edge: 1, Factor: 0.5},
		}, "already severed"},
		{"out-of-order listing replays chronologically", []FaultEvent{
			{Epoch: 3, Kind: FaultDegradeEdge, Edge: 1, Factor: 0.5},
			{Epoch: 1, Kind: FaultSeverEdge, Edge: 1},
		}, "already severed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &FaultSchedule{Events: tc.events}
			err := s.Validate(topo)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate: got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestFaultScheduleValidateNeedsFabric(t *testing.T) {
	topo, err := FromSpec("pack:2 core:4")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	s := &FaultSchedule{Events: []FaultEvent{{Epoch: 1, Kind: FaultKillNode}}}
	if err := s.Validate(topo); err == nil || !strings.Contains(err.Error(), "multi-node platform") {
		t.Fatalf("Validate on a single machine: got %v, want multi-node platform error", err)
	}
}

func TestFaultScheduleEventsAt(t *testing.T) {
	topo := faultTestTopo(t)
	s := &FaultSchedule{Events: []FaultEvent{
		{Epoch: 2, Kind: FaultKillNode, Node: 1},
		{Epoch: 2, Kind: FaultDegradeEdge, Edge: 0, Factor: 0.5},
		{Epoch: 4, Kind: FaultDegradeEdge, Edge: 0, Factor: 0.5},
		{Epoch: 5, Kind: FaultSeverEdge, Edge: 2},
	}}
	if err := s.Validate(topo); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if evs := s.EventsAt(2); len(evs) != 2 || evs[0].Kind != FaultKillNode || evs[1].Kind != FaultDegradeEdge {
		t.Fatalf("EventsAt(2) = %v, want the kill then the degrade", evs)
	}
	if evs := s.EventsAt(3); len(evs) != 0 {
		t.Fatalf("EventsAt(3) = %d events, want 0", len(evs))
	}
}

func TestFaultScheduleNilIsNoop(t *testing.T) {
	var s *FaultSchedule
	topo := faultTestTopo(t)
	if err := s.Validate(topo); err != nil {
		t.Fatalf("nil schedule must validate: %v", err)
	}
	if evs := s.EventsAt(1); evs != nil {
		t.Fatalf("nil schedule EventsAt = %v, want nil", evs)
	}
}
