package comm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Read parses a matrix in the text format TreeMatch-style tools consume: a
// first line with the order n, followed by n lines of n space-separated
// volumes. Blank lines and lines starting with '#' are ignored; a trailing
// "# label" on a row sets the row's entity label. Every volume must be
// finite and not negative (-0 is accepted).
//
// The file need not be symmetric; the matrix is. Each off-diagonal entry
// a(i,j) adds a(i,j)/2 to both (i,j) and (j,i) (AddSym), and a diagonal
// entry is kept whole, so S(i,j) + S(j,i), the affinity the partitioners
// read, is a(i,j) + a(j,i) bit for bit whenever halving the two is exact
// (volumes clear of the subnormal range). Each row keeps only its nonzeros,
// and the matrix is built only once all n rows have been read, so memory
// follows the input's nonzeros, not the order its first line claims.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var rows [][]entry
	var labels []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var label string
		if idx := strings.Index(line, "#"); idx >= 0 {
			label = strings.TrimSpace(line[idx+1:])
			line = strings.TrimSpace(line[:idx])
		}
		if n < 0 {
			order, err := strconv.Atoi(line)
			if err != nil || order < 0 {
				return nil, fmt.Errorf("comm: bad order line %q", line)
			}
			n = order
			continue
		}
		i := len(rows)
		if i >= n {
			return nil, fmt.Errorf("comm: more than %d rows", n)
		}
		fields := strings.Fields(line)
		if len(fields) != n {
			return nil, fmt.Errorf("comm: row %d has %d entries, want %d", i, len(fields), n)
		}
		var row []entry
		for j, f := range fields {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("comm: row %d entry %d: %v", i, j, err)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("comm: row %d entry %d: volume %v is not finite", i, j, x)
			}
			if x < 0 {
				return nil, fmt.Errorf("comm: row %d entry %d: volume %v is negative", i, j, x)
			}
			if x != 0 {
				row = append(row, entry{j, x})
			}
		}
		rows = append(rows, row)
		labels = append(labels, label)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("comm: empty input")
	}
	if len(rows) != n {
		return nil, fmt.Errorf("comm: got %d rows, want %d", len(rows), n)
	}
	m := New(n)
	for i, row := range rows {
		for _, e := range row {
			if e.j == i {
				m.AddSym(i, i, e.v)
			} else {
				m.AddSym(i, e.j, e.v/2)
			}
		}
		if labels[i] != "" {
			m.SetLabel(i, labels[i])
		}
	}
	return m, nil
}

// entry is one nonzero volume v of a row read, in column j.
type entry struct {
	j int
	v float64
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("comm.Matrix(order=%d, total=%g)", m.n, m.TotalVolume())
	}
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
