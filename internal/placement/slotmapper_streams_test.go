package placement_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/treematch"
)

// TestSlotMapperMatchesOracleOnStreams places every job of the A15 and A16
// cells (both platforms) and of both scheduler benchmark streams, at seeds
// 1 and 42, through one SlotMapper per stream, and requires each result to
// equal the oracle's. Each job lands in a view drawn at random: some free
// cores of one node or of several, until they hold the job, so views and
// job sizes grow and shrink from one call to the next. Both single-node and
// multi-node views must occur.
func TestSlotMapperMatchesOracleOnStreams(t *testing.T) {
	shapes := []string{"rack:2 node:4 pack:2 core:4 pu:1", "pod:2 rack:2 node:2 pack:2 core:4 pu:1"}
	a15 := sched.StreamConfig{Jobs: 40, Churn: 4, ConstraintFraction: 0.3, PreferredTier: "node", RequiredTier: "rack"}
	a16 := sched.StreamConfig{Jobs: 48, Sizes: []int{2, 3, 4, 6, 8, 12, 16}, Churn: 12, ConstraintFraction: 0.35,
		LongFraction: 0.2, LongFactor: 8, VolumeBytes: 4 << 10, PriorityClasses: 3,
		PreferredTier: "node", RequiredTier: "rack"}
	fifo := a15
	fifo.Jobs = 800
	phase2 := a16
	phase2.Jobs = 80
	type stream struct {
		name     string
		shape    string
		cfg      sched.StreamConfig
		renumber int64
	}
	var single, multi int
	for _, seed := range []int64{1, 42} {
		streams := []stream{{"sched-fifo", shapes[0], fifo, 0}, {"sched-phase2", shapes[1], phase2, seed - 1}}
		for _, shape := range shapes {
			streams = append(streams, stream{"a15", shape, a15, 0}, stream{"a16", shape, a16, 0})
		}
		for _, s := range streams {
			s.cfg.Seed = seed
			if s.name == "sched-phase2" {
				s.cfg.Seed = 1 // the benchmark renumbers its stencils by the seed instead
			}
			one, many := placeStream(t, fmt.Sprintf("%s/%s/%d", s.name, s.shape, seed), s.shape, s.cfg, s.renumber)
			single, multi = single+one, multi+many
		}
	}
	t.Logf("%d single-node and %d multi-node views", single, multi)
	if single == 0 || multi == 0 {
		t.Errorf("%d single-node and %d multi-node views, want both", single, multi)
	}
}

// placeStream runs one stream's jobs through one SlotMapper and counts the
// single-node and multi-node views.
func placeStream(t *testing.T, name, shape string, cfg sched.StreamConfig, renumber int64) (single, multi int) {
	t.Helper()
	plat, err := numasim.NewPlatform(shape, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := plat.Machine()
	topo := mach.Topology()
	cores := make([][]int, topo.NumClusterNodes())
	for c, core := range topo.Cores() {
		n := mach.ClusterNodeOfPU(core.Children[0].OSIndex)
		cores[n] = append(cores[n], c)
	}
	jobs, err := sched.GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var s placement.SlotMapper
	for _, j := range jobs {
		if shape, n, ok := strings.Cut(j.Pattern, "@"); ok && renumber != 0 {
			v, _ := strconv.ParseInt(n, 10, 64)
			j.Pattern = fmt.Sprintf("%s@%d", shape, v+renumber)
		}
		m, err := j.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		free := make([][]int, len(cores))
		for got, k := 0, 0; got < m.Order() || k == 0; k++ {
			n := rng.Intn(len(cores))
			for _, c := range cores[n] {
				if rng.Intn(3) > 0 && !slices.Contains(free[n], c) {
					free[n] = append(free[n], c)
					got++
				}
			}
			slices.Sort(free[n])
		}
		got, err := s.Assign(mach, m, free, treematch.Options{})
		if err != nil {
			t.Fatalf("%s/%s: %v", name, j.Name, err)
		}
		want, err := placement.OracleAssignFreeSlots(mach, m, free, treematch.Options{})
		if err != nil {
			t.Fatalf("%s/%s: oracle: %v", name, j.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: reused SlotMapper gives %v, the oracle %v", name, j.Name, got.TaskPU, want.TaskPU)
		}
		nodes := 0
		for _, slots := range free {
			if len(slots) > 0 {
				nodes++
			}
		}
		if nodes == 1 {
			single++
		} else {
			multi++
		}
	}
	return single, multi
}
