package kernels

import "fmt"

// Partition describes the decomposition of a Rows×Cols grid into a BX×BY
// grid of rectangular blocks, the unit of work of the paper's ORWL
// implementation (one main operation plus eight frontier operations per
// block). Rows are divided as evenly as possible among the BY block rows,
// columns among the BX block columns; earlier blocks absorb the remainder.
type Partition struct {
	Rows, Cols int
	BX, BY     int
}

// NewPartition validates and builds a partition. Every block must contain
// at least one cell.
func NewPartition(rows, cols, bx, by int) (Partition, error) {
	p := Partition{Rows: rows, Cols: cols, BX: bx, BY: by}
	if rows <= 0 || cols <= 0 {
		return p, fmt.Errorf("kernels: grid %dx%d must be positive", rows, cols)
	}
	if bx <= 0 || by <= 0 {
		return p, fmt.Errorf("kernels: block grid %dx%d must be positive", bx, by)
	}
	if bx > cols || by > rows {
		return p, fmt.Errorf("kernels: block grid %dx%d exceeds cells %dx%d", bx, by, cols, rows)
	}
	return p, nil
}

// Block is one rectangle of a partition: H rows starting at R0, W columns
// starting at C0 (all in global grid coordinates).
type Block struct {
	R0, C0 int
	H, W   int
}

// Cells returns the number of cells in the block.
func (b Block) Cells() int { return b.H * b.W }

// Block returns the rectangle of block column x, block row y.
func (p Partition) Block(x, y int) Block {
	return Block{
		R0: spanStart(p.Rows, p.BY, y),
		C0: spanStart(p.Cols, p.BX, x),
		H:  spanLen(p.Rows, p.BY, y),
		W:  spanLen(p.Cols, p.BX, x),
	}
}

// spanStart returns the first index of the i-th of n near-equal spans of
// total elements; spanLen the span's length. The first total%n spans are
// one element longer.
func spanStart(total, n, i int) int {
	base, rem := total/n, total%n
	if i < rem {
		return i * (base + 1)
	}
	return rem*(base+1) + (i-rem)*base
}

func spanLen(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}
