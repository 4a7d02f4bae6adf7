package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// mappingCostOracle is MappingCost as a loop over every pair reading At.
func mappingCostOracle(mach *numasim.Machine, m *comm.Matrix, taskPU []int) float64 {
	var s float64
	for i := 0; i < m.Order(); i++ {
		for j := i + 1; j < m.Order(); j++ {
			vol := m.At(i, j) + m.At(j, i)
			if vol == 0 {
				continue
			}
			s += mach.TransferCost(taskPU[i], taskPU[j], vol)
		}
	}
	return s
}

// TestMappingCostMatchesOracle requires the row walk to give the pair
// loop's sum bit for bit, on dense random, sparse random and LK23 matrices
// under random assignments, on one node and across a rack fabric.
func TestMappingCostMatchesOracle(t *testing.T) {
	matrices := map[string]*comm.Matrix{
		"random":        comm.Random(60, 0.3, 1e6, 3),
		"random-sparse": comm.RandomSparse(300, 6, 1e6, 5),
		"lk23":          comm.LK23OpLevel(3, 2, 64, 32, 8),
	}
	for _, spec := range []string{"pack:4 l3:1 core:8 pu:2", "rack:2 node:2 pack:2 core:4 pu:1"} {
		mach := machine(t, spec)
		pus := mach.Topology().NumPUs()
		rng := rand.New(rand.NewSource(11))
		for name, m := range matrices {
			for trial := range 4 {
				taskPU := make([]int, m.Order())
				for i := range taskPU {
					taskPU[i] = rng.Intn(pus)
				}
				got, want := MappingCost(mach, m, taskPU), mappingCostOracle(mach, m, taskPU)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s on %q, assignment %d: MappingCost %v, pair loop %v", name, spec, trial, got, want)
				}
			}
		}
	}
}
