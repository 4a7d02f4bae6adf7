package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionExact(t *testing.T) {
	p, err := NewPartition(16, 12, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 16 rows / 4 = 4 each; 12 cols / 3 = 4 each.
	b := p.Block(1, 2)
	if b.R0 != 8 || b.C0 != 4 || b.H != 4 || b.W != 4 {
		t.Errorf("Block(1,2) = %+v", b)
	}
}

func TestPartitionRemainder(t *testing.T) {
	p, err := NewPartition(10, 7, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 4,3,3. Cols: 3,2,2.
	wantH := []int{4, 3, 3}
	wantW := []int{3, 2, 2}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			b := p.Block(x, y)
			if b.H != wantH[y] || b.W != wantW[x] {
				t.Errorf("Block(%d,%d) = %+v, want H=%d W=%d", x, y, b, wantH[y], wantW[x])
			}
		}
	}
}

// TestPartitionCoversExactly is the partition property: blocks tile the
// grid without gaps or overlaps.
func TestPartitionCoversExactly(t *testing.T) {
	f := func(rSel, cSel, bxSel, bySel uint8) bool {
		rows := int(rSel%20) + 3
		cols := int(cSel%20) + 3
		bx := int(bxSel)%cols%6 + 1
		by := int(bySel)%rows%6 + 1
		p, err := NewPartition(rows, cols, bx, by)
		if err != nil {
			return false
		}
		covered := make([]int, rows*cols)
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				b := p.Block(x, y)
				if b.H <= 0 || b.W <= 0 {
					return false
				}
				for r := b.R0; r < b.R0+b.H; r++ {
					for c := b.C0; c < b.C0+b.W; c++ {
						covered[r*cols+c]++
					}
				}
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestPartitionErrors(t *testing.T) {
	cases := []struct{ r, c, bx, by int }{
		{0, 5, 1, 1},
		{5, 0, 1, 1},
		{5, 5, 0, 1},
		{5, 5, 1, -1},
		{5, 5, 6, 1}, // more block columns than cells
		{5, 5, 1, 6},
	}
	for _, tc := range cases {
		if _, err := NewPartition(tc.r, tc.c, tc.bx, tc.by); err == nil {
			t.Errorf("NewPartition(%v) succeeded", tc)
		}
	}
}
