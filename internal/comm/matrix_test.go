package comm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	m := New(3)
	if m.Order() != 3 {
		t.Fatalf("Order = %d", m.Order())
	}
	m.AddSym(0, 1, 5)
	m.AddSym(1, 0, 2)
	if m.At(0, 1) != 7 || m.At(1, 0) != 7 {
		t.Errorf("AddSym accumulated %v and %v, want 7", m.At(0, 1), m.At(1, 0))
	}
	m.AddSym(1, 2, 3)
	if m.At(1, 2) != 3 || m.At(2, 1) != 3 {
		t.Errorf("AddSym failed: %v %v", m.At(1, 2), m.At(2, 1))
	}
	m.AddSym(2, 2, 4)
	if m.At(2, 2) != 4 {
		t.Errorf("AddSym on diagonal doubled: %v", m.At(2, 2))
	}
	m.AddSym(0, 2, 0)
	if m.NNZ() != 5 {
		t.Errorf("NNZ = %d after adding a zero, want 5: a zero is not stored", m.NNZ())
	}
}

// TestAddSymRejectsInvalidVolumes: AddSym, the only writer of a matrix,
// panics on a volume that is negative or not finite, with the volume in
// the message, and stores nothing; the control rows are accepted.
func TestAddSymRejectsInvalidVolumes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		vol   float64
		valid bool
	}{
		{"negative", -1, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"control zero", 0, true},
		{"control negative zero", math.Copysign(0, -1), true},
		{"control largest", math.MaxFloat64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(2)
			defer func() {
				r := recover()
				switch {
				case tc.valid && r != nil:
					t.Fatalf("AddSym(0, 1, %v) panicked: %v", tc.vol, r)
				case !tc.valid && r == nil:
					t.Fatalf("AddSym(0, 1, %v) accepted", tc.vol)
				case !tc.valid && !strings.Contains(fmt.Sprint(r), fmt.Sprint(tc.vol)):
					t.Fatalf("AddSym(0, 1, %v) panicked with %q, which does not name the volume", tc.vol, r)
				}
				want := 0
				if tc.valid && tc.vol != 0 {
					want = 2
				}
				if m.NNZ() != want {
					t.Fatalf("AddSym(0, 1, %v) left %d entries, want %d", tc.vol, m.NNZ(), want)
				}
			}()
			m.AddSym(0, 1, tc.vol)
		})
	}
}

// transposeExact reports the first cell (i, j), in row-major order, whose
// bits differ from those of (j, i), if any.
func transposeExact(m *Matrix) (i, j int, ok bool) {
	for i := 0; i < m.Order(); i++ {
		for j := 0; j < m.Order(); j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
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
	m.AddSym(0, 0, 99) // diagonal must not count
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
		if i, j, ok := transposeExact(agg); !ok {
			t.Errorf("Aggregate(%v): cells (%d,%d) and (%d,%d) differ", groups, i, j, j, i)
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
	c.AddSym(0, 1, 5)
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
-0 1.5 0   # zero
1.5 0 2e6

0 2e6 0.25 # two
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := New(3)
	want.AddSym(0, 1, 1.5)
	want.AddSym(1, 2, 2e6)
	want.AddSym(2, 2, 0.25)
	if !m.Equal(want, 0) {
		t.Errorf("Read = \n%v, want\n%v", m, want)
	}
	if m.NNZ() != want.NNZ() {
		t.Errorf("Read stored %d entries, want %d: -0 is read as absent", m.NNZ(), want.NNZ())
	}
	if m.Label(0) != "zero" || m.Label(1) != "t1" || m.Label(2) != "two" {
		t.Errorf("labels = %q %q %q", m.Label(0), m.Label(1), m.Label(2))
	}
	if m, err := Read(strings.NewReader("0\n")); err != nil || m.Order() != 0 {
		t.Errorf("Read of the empty matrix = %v, %v", m, err)
	}
}

// TestReadSymmetrises: a file that is not symmetric is read as its
// symmetric form, each off-diagonal entry split evenly over its two cells
// and the diagonal kept whole, so every pair's affinity S(i,j) + S(j,i) is
// the file's a(i,j) + a(j,i).
func TestReadSymmetrises(t *testing.T) {
	m, err := Read(strings.NewReader("3\n0 1 0\n3 0 0.5\n0.1 0 7\n"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, c := range []struct {
		i, j int
		want float64
	}{
		{0, 1, 2}, {1, 0, 2}, {1, 2, 0.25}, {2, 1, 0.25}, {0, 2, 0.05}, {2, 0, 0.05},
		{0, 0, 0}, {1, 1, 0}, {2, 2, 7},
	} {
		if got := m.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	if got := m.At(0, 2) + m.At(2, 0); got != 0.1 {
		t.Errorf("affinity of (0,2) = %v, want the file's 0.1", got)
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
		{"order beyond memory", "2000000000\n", "got 0 rows, want 2000000000"},
		{"NaN", "2\n0 NaN\n1 0\n", "row 0 entry 1: volume NaN is not finite"},
		{"Inf", "2\n0 1\n+Inf 0\n", "row 1 entry 0: volume +Inf is not finite"},
		{"-Inf", "1\n-inf\n", "row 0 entry 0: volume -Inf is not finite"},
		{"overflow", "1\n1e400\n", "row 0 entry 0"},
		{"negative", "3\n0 -5 1\n-5 0 2\n1 2 0\n", "row 0 entry 1: volume -5 is negative"},
		{"tiny negative", "1\n-1e-300\n", "row 0 entry 0: volume -1e-300 is negative"},
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
// rows as its order and only finite entries, none of them negative; it
// equals its transpose bit for bit, and where halving the file's volumes is
// exact, S(i,j) + S(j,i) == a(i,j) + a(j,i) (a -0 in the file reads 0).
func FuzzReadMatrix(f *testing.F) {
	for _, seed := range []string{
		"2\n0 1\n1 0\n",
		"3\n0 1 2 # a\n1 0 3\n2 3 0 # c\n",
		"# comment\n1\n\n5\n",
		"0\n",
		"4000000000\n",
		"2\n0 NaN\n1 0\n",
		"1\n1e400\n",
		"3\n0 -5 1\n-5 0 2\n1 2 0\n",
		"2\n-0 1\n1 -0\n",
		"3\n0 1 0\n3 0 0.5\n0.1 0 7\n",
		"2\n0 1.7976931348623157e308\n1.7976931348623157e308 0\n",
		"2\n0 5e-324\n0 0\n",
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
				if x := m.At(i, j); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Fatalf("entry (%d,%d) = %v", i, j, x)
				}
			}
		}
		if i, j, ok := transposeExact(m); !ok {
			t.Fatalf("cells (%d,%d) and (%d,%d) differ: %v and %v", i, j, j, i, m.At(i, j), m.At(j, i))
		}
		a := readVolumes(in)
		exact := func(v float64) bool { return v/2*2 == v }
		for i := range a {
			for j := range a {
				if !exact(a[i][j]) || !exact(a[j][i]) {
					continue
				}
				if got, want := m.At(i, j)+m.At(j, i), a[i][j]+a[j][i]; got != want {
					t.Fatalf("affinity of (%d,%d) = %v, want the file's %v + %v = %v", i, j, got, a[i][j], a[j][i], want)
				}
			}
		}
	})
}

// readVolumes parses the rows of a text matrix that Read accepted, as they
// stand in the file.
func readVolumes(in string) [][]float64 {
	var rows [][]float64
	header := true
	for _, line := range strings.Split(in, "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if header {
			header = false
			continue
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			row[j], _ = strconv.ParseFloat(f, 64)
		}
		rows = append(rows, row)
	}
	return rows
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
