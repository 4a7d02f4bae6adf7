package placement

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

// TestAssignmentContract holds every policy's Assignment to what its fields
// promise, on single machines with and without SMT and on even, uneven,
// heterogeneous and shaped clusters (TreeMatch, one Algorithm 1 run,
// rejects the uneven ones), for every task count from 1 to twice the core
// count plus one:
//   - one TaskPU and one ControlPU per task, each a PU of the machine or -1;
//   - VirtualArity is the most tasks bound to one PU (1 when none is bound);
//   - Strategy never claims more than the bindings deliver: hyperthread
//     pairing binds every control thread, a strategy that binds some binds
//     at least one, and a baseline or a single Algorithm 1 run that reports
//     unmapped binds none (Hierarchical reports the most conservative
//     strategy of its nodes, so it may report unmapped beside nodes that
//     bound theirs);
//   - the same input gives the same Assignment.
func TestAssignmentContract(t *testing.T) {
	policies := []Policy{TreeMatch{}, Compact{}, Scatter{}, Random{Seed: 7}, NoBind{}, Hierarchical{}, RoundRobinNodes{}}
	conservative := 0
	for _, spec := range []string{
		"pack:2 core:4 pu:2",
		"pack:2 core:3",
		"cluster:2 pack:1 core:4",
		"node:{pack:1 core:4 pu:2 | pack:1 core:2 pu:1}",
		"rack:2 node:2,3 pack:1 core:2",
		"torus:2x2 pack:1 core:2",
	} {
		plat, err := numasim.NewPlatform(spec, numasim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mach := plat.Machine()
		topo := mach.Topology()
		for n := 1; n <= 2*topo.NumCores()+1; n++ {
			m := comm.RandomSparse(n, 3, 100, int64(n))
			for _, pol := range policies {
				name := fmt.Sprintf("%s on %q, %d tasks", pol.Name(), spec, n)
				a, err := pol.Assign(mach, m)
				if _, single := pol.(TreeMatch); single && err != nil && strings.Contains(err.Error(), "uneven topology") {
					continue // one Algorithm 1 run needs a balanced tree
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if again, err := pol.Assign(mach, m); err != nil || !reflect.DeepEqual(again, a) {
					t.Fatalf("%s: a second run gave %+v (%v), the first %+v", name, again, err, a)
				}
				if len(a.TaskPU) != n || len(a.ControlPU) != n {
					t.Fatalf("%s: %d task PUs and %d control PUs", name, len(a.TaskPU), len(a.ControlPU))
				}
				perPU := make([]int, topo.NumPUs())
				arity, bound := 1, 0
				for i := range n {
					for _, pu := range []int{a.TaskPU[i], a.ControlPU[i]} {
						if pu < -1 || pu >= topo.NumPUs() {
							t.Fatalf("%s: task %d bound to PU %d of %d", name, i, pu, topo.NumPUs())
						}
					}
					if pu := a.TaskPU[i]; pu >= 0 {
						perPU[pu]++
						arity = max(arity, perPU[pu])
					}
					if a.ControlPU[i] >= 0 {
						bound++
					}
				}
				if a.VirtualArity != arity {
					t.Errorf("%s: VirtualArity %d, but %d tasks share a PU", name, a.VirtualArity, arity)
				}
				switch a.Strategy {
				case treematch.ControlHyperthread:
					if bound != n {
						t.Errorf("%s: hyperthread pairing with %d of %d control threads bound", name, bound, n)
					}
				case treematch.ControlSpareCores:
					if bound == 0 {
						t.Errorf("%s: spare cores with no control thread bound", name)
					}
				case treematch.ControlUnmapped:
					if _, ok := pol.(Hierarchical); bound > 0 && !ok {
						t.Errorf("%s: unmapped with %d control threads bound", name, bound)
					} else if bound > 0 {
						conservative++
					}
				default:
					t.Errorf("%s: strategy %v", name, a.Strategy)
				}
			}
		}
	}
	if conservative == 0 {
		t.Error("no hierarchical placement reported unmapped beside a node that bound its control threads: the conservative rule went unexercised")
	}
}
