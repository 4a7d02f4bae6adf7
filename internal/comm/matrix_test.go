package comm

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	m := New(3)
	if m.Order() != 3 {
		t.Fatalf("Order = %d", m.Order())
	}
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %v, want 7", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0 before AddSym", got)
	}
	m.AddSym(1, 2, 3)
	if m.At(1, 2) != 3 || m.At(2, 1) != 3 {
		t.Errorf("AddSym failed: %v %v", m.At(1, 2), m.At(2, 1))
	}
	m.AddSym(2, 2, 4)
	if m.At(2, 2) != 4 {
		t.Errorf("AddSym on diagonal doubled: %v", m.At(2, 2))
	}
	if m.IsSymmetric() {
		t.Errorf("matrix with (0,1)=7,(1,0)=0 reported symmetric")
	}
}

func TestLabels(t *testing.T) {
	m := New(2)
	if m.Label(1) != "t1" {
		t.Errorf("default label = %q", m.Label(1))
	}
	m.SetLabel(1, "worker")
	if m.Label(1) != "worker" || m.Label(0) != "t0" {
		t.Errorf("labels = %q, %q", m.Label(0), m.Label(1))
	}
}

func TestTotalAndRowVolume(t *testing.T) {
	m := Ring(4, 10)
	// 4 edges × 10 × 2 directions.
	if got := m.TotalVolume(); got != 80 {
		t.Errorf("TotalVolume = %v, want 80", got)
	}
	if got := m.RowVolume(0); got != 20 {
		t.Errorf("RowVolume(0) = %v, want 20", got)
	}
	m.Set(0, 0, 99) // diagonal must not count
	if got := m.TotalVolume(); got != 80 {
		t.Errorf("TotalVolume with diagonal = %v, want 80", got)
	}
}

func TestAggregate(t *testing.T) {
	m := Ring(4, 1) // 0-1-2-3-0
	// Sorted groups take the row sweep, unsorted ones the nested At loop;
	// both must give the same quotient.
	for _, groups := range [][][]int{
		{{0, 1}, {2, 3}},
		{{1, 0}, {3, 2}},
		{{0, 1}, {3, 2}},
	} {
		agg, err := m.Aggregate(groups)
		if err != nil {
			t.Fatalf("Aggregate(%v): %v", groups, err)
		}
		if agg.Order() != 2 {
			t.Fatalf("Aggregate(%v): order = %d", groups, agg.Order())
		}
		// Internal volume of {0,1}: edge 0-1 counted in both directions = 2.
		if got := agg.At(0, 0); got != 2 {
			t.Errorf("Aggregate(%v): internal volume = %v, want 2", groups, got)
		}
		// Cross volume: edges 1-2 and 3-0, both directions = 2 per direction sum.
		if got := agg.At(0, 1); got != 2 {
			t.Errorf("Aggregate(%v): cross volume = %v, want 2", groups, got)
		}
		if !agg.IsSymmetric() {
			t.Errorf("Aggregate(%v): aggregate of symmetric matrix not symmetric", groups)
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	m := New(3)
	cases := [][][]int{
		{{0, 1}},         // missing entity 2
		{{0, 1}, {1, 2}}, // duplicate 1
		{{0, 1}, {2, 3}}, // out of range
		{{0}, {1}, {-1}}, // negative
	}
	for _, groups := range cases {
		if _, err := m.Aggregate(groups); err == nil {
			t.Errorf("Aggregate(%v) succeeded, want error", groups)
		}
	}
}

// TestAggregatePreservesVolume is the core conservation property of the
// paper's AggregateComMatrix step: grouping must neither create nor destroy
// communication volume (internal volume moves to the diagonal).
func TestAggregatePreservesVolume(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		n := 8
		m := Random(n, 0.6, 100, seed)
		k := int(split%3) + 2 // 2..4 groups
		groups := make([][]int, k)
		for i := 0; i < n; i++ {
			groups[i%k] = append(groups[i%k], i)
		}
		agg, err := m.Aggregate(groups)
		if err != nil {
			return false
		}
		// Total including diagonal must be conserved.
		var before, after float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				before += m.At(i, j)
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				after += agg.At(i, j)
			}
		}
		return almostEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+absf(a)+absf(b))
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestExtendZero(t *testing.T) {
	m := Ring(3, 5)
	m.SetLabel(0, "a")
	e, err := m.ExtendZero(5)
	if err != nil {
		t.Fatalf("ExtendZero: %v", err)
	}
	if e.Order() != 5 {
		t.Fatalf("order = %d", e.Order())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if e.At(i, j) != m.At(i, j) {
				t.Errorf("entry (%d,%d) changed: %v vs %v", i, j, e.At(i, j), m.At(i, j))
			}
		}
	}
	for i := 0; i < 5; i++ {
		if e.At(i, 4) != 0 || e.At(4, i) != 0 {
			t.Errorf("extended entries not zero at %d", i)
		}
	}
	if e.Label(0) != "a" || e.Label(4) != "v4" {
		t.Errorf("labels = %q, %q", e.Label(0), e.Label(4))
	}
	if _, err := m.ExtendZero(2); err == nil {
		t.Errorf("shrinking ExtendZero succeeded")
	}
}

func TestMatrixEqual(t *testing.T) {
	m := Ring(3, 5)
	c := Ring(3, 5)
	if !c.Equal(m, 0) {
		t.Errorf("two equal rings not equal")
	}
	c.Set(0, 1, 10)
	if c.Equal(m, 0.001) {
		t.Errorf("changed matrix equal to original")
	}
	if !c.Equal(m, 5) {
		t.Errorf("matrices within the tolerance not equal")
	}
	if m.Equal(New(2), 1) {
		t.Errorf("different orders reported equal")
	}
}

func TestReadParsesText(t *testing.T) {
	in := `# a comment line, then the order
3
0 1.5 0   # zero
1.5 0 2e6

0 2e6 -0.25 # two
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := New(3)
	want.Set(0, 1, 1.5)
	want.Set(1, 0, 1.5)
	want.Set(1, 2, 2e6)
	want.Set(2, 1, 2e6)
	want.Set(2, 2, -0.25)
	if !m.Equal(want, 0) {
		t.Errorf("Read = \n%v, want\n%v", m, want)
	}
	if m.Label(0) != "zero" || m.Label(1) != "t1" || m.Label(2) != "two" {
		t.Errorf("labels = %q %q %q", m.Label(0), m.Label(1), m.Label(2))
	}
	if m, err := Read(strings.NewReader("0\n")); err != nil || m.Order() != 0 {
		t.Errorf("Read of the empty matrix = %v, %v", m, err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"empty", "", "empty input"},
		{"bad order", "x\n", "bad order"},
		{"negative order", "-1\n", "bad order"},
		{"missing row", "2\n1 2\n", "got 1 rows, want 2"},
		{"wrong width", "2\n1 2 3\n4 5 6\n", "row 0 has 3 entries"},
		{"bad number", "2\n1 a\n3 4\n", "row 0 entry 1"},
		{"extra row", "1\n0\n0\n", "more than 1 rows"},
		{"order beyond memory", "4000000000\n", "got 0 rows, want 4000000000"},
		{"NaN", "2\n0 NaN\n1 0\n", "row 0 entry 1: volume NaN is not finite"},
		{"Inf", "2\n0 1\n+Inf 0\n", "row 1 entry 0: volume +Inf is not finite"},
		{"-Inf", "1\n-inf\n", "row 0 entry 0: volume -Inf is not finite"},
		{"overflow", "1\n1e400\n", "row 0 entry 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Read(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read(%q) = %v, %v; want an error containing %q", tc.in, m, err, tc.want)
			}
		})
	}
}

// TestReadMemoryFollowsInput: an order line alone must not allocate the
// matrix it announces (order 4096 is 128 MiB dense).
func TestReadMemoryFollowsInput(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(strings.NewReader("4096\n0 1\n")); err == nil {
		t.Fatal("truncated input accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("Read of a two-line input allocated %d bytes", got)
	}
}

// FuzzReadMatrix: Read never panics, and every matrix it accepts has as many
// rows as its order and only finite entries.
func FuzzReadMatrix(f *testing.F) {
	for _, seed := range []string{
		"2\n0 1\n1 0\n",
		"3\n0 1 2 # a\n1 0 3\n2 3 0 # c\n",
		"# comment\n1\n\n5\n",
		"0\n",
		"4000000000\n",
		"2\n0 NaN\n1 0\n",
		"1\n1e400\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		n := 0
		for _, line := range strings.Split(in, "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		if m.Order() != n-1 {
			t.Fatalf("order %d from %d row lines", m.Order(), n-1)
		}
		for i := 0; i < m.Order(); i++ {
			for j := 0; j < m.Order(); j++ {
				if x := m.At(i, j); math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("entry (%d,%d) = %v", i, j, x)
				}
			}
		}
	})
}

func TestStringForms(t *testing.T) {
	small := Ring(3, 1)
	if !strings.Contains(small.String(), "\n") {
		t.Errorf("small String not rendered as grid: %q", small.String())
	}
	big := New(64)
	if !strings.Contains(big.String(), "order=64") {
		t.Errorf("large String = %q", big.String())
	}
}
