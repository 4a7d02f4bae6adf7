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
// finite. Each row keeps only its nonzeros, and the matrix is built only
// once all n rows have been read, so memory follows the input's nonzeros,
// not the order its first line claims.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var rows []sparseRow
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
		var row sparseRow
		for j, f := range fields {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("comm: row %d entry %d: %v", i, j, err)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("comm: row %d entry %d: volume %v is not finite", i, j, x)
			}
			if math.Float64bits(x) != 0 { // +0 is what an absent entry reads; -0 is kept
				row.cols, row.vals = append(row.cols, int32(j)), append(row.vals, x)
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
	m := &Matrix{n: n, rows: rows}
	for i, label := range labels {
		if label != "" {
			m.SetLabel(i, label)
		}
	}
	return m, nil
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
