package comm

import (
	"fmt"
	"math/rand"
)

// Stencil2DSparse builds the block-level affinity matrix of a bx×by block
// grid with 8-neighbour (Moore) connectivity: edge-adjacent blocks exchange
// edgeVol bytes per iteration, diagonally adjacent blocks exchange cornerVol
// bytes. Entity index of block (x,y) is y*bx+x; labels are "b(x,y)". The
// grid does not wrap (the paper's LK23 matrix has open boundaries). Memory
// is O(bx·by): a 100k-task stencil is ~800k nonzeros.
func Stencil2DSparse(bx, by int, edgeVol, cornerVol float64) *Matrix {
	m := New(bx * by)
	id := func(x, y int) int { return y*bx + x }
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			m.SetLabel(id(x, y), fmt.Sprintf("b(%d,%d)", x, y))
		}
	}
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			// Only look east/south/south-east/south-west so each pair is
			// recorded once; AddSym mirrors it.
			if x+1 < bx {
				m.AddSym(id(x, y), id(x+1, y), edgeVol)
			}
			if y+1 < by {
				m.AddSym(id(x, y), id(x, y+1), edgeVol)
				if x+1 < bx {
					m.AddSym(id(x, y), id(x+1, y+1), cornerVol)
				}
				if x-1 >= 0 {
					m.AddSym(id(x, y), id(x-1, y+1), cornerVol)
				}
			}
		}
	}
	packRows(m.rows, m.rows)
	return m
}

// Frontier identifies one of the eight frontier operations of an LK23 block
// (paper §III: each block has a main operation plus eight sub-operations
// exporting its edges and corners).
type Frontier int

// The eight frontier directions, plus OpMain for the main operation.
const (
	OpMain Frontier = iota
	OpN
	OpS
	OpE
	OpW
	OpNE
	OpNW
	OpSE
	OpSW
	opsPerBlock
)

var frontierNames = [opsPerBlock]string{"main", "N", "S", "E", "W", "NE", "NW", "SE", "SW"}

// String returns "main", "N", ..., "SW".
func (f Frontier) String() string {
	if f < 0 || f >= opsPerBlock {
		return fmt.Sprintf("Frontier(%d)", int(f))
	}
	return frontierNames[f]
}

// OpsPerBlock is the number of operations (threads) per LK23 block: one main
// operation and eight frontier operations.
const OpsPerBlock = int(opsPerBlock)

// LK23OpIndex returns the entity index of operation f of block (x,y) in the
// matrix built by LK23OpLevel for a bx-wide block grid.
func LK23OpIndex(bx, x, y int, f Frontier) int {
	return (y*bx+x)*OpsPerBlock + int(f)
}

// LK23OpLevel builds the operation-level affinity matrix of the paper's LK23
// decomposition: every block of a bx×by grid is handled by 9 threads (main +
// 8 frontiers). Volumes per iteration, for blocks of blockW×blockH elements
// of elemBytes each:
//
//   - main ↔ own frontier op: the frontier strip is written by main and
//     handed to the frontier thread (edge strips are blockW or blockH
//     elements, corner strips 1 element);
//   - frontier op ↔ neighbouring block's main: the same strip is read by the
//     neighbour that needs it for its halo.
//
// Frontier ops whose direction falls outside the grid communicate only with
// their own main (volume still flows locally, as in the reference ORWL
// implementation where boundary locations hold fixed boundary conditions).
func LK23OpLevel(bx, by, blockW, blockH, elemBytes int) *Matrix {
	m := New(bx * by * OpsPerBlock)
	eb := float64(elemBytes)
	edgeH := float64(blockW) * eb // horizontal strip (N or S edge)
	edgeV := float64(blockH) * eb // vertical strip (E or W edge)
	corner := eb
	type dir struct {
		f      Frontier
		dx, dy int
		vol    float64
	}
	dirs := []dir{
		{OpN, 0, -1, edgeH}, {OpS, 0, 1, edgeH},
		{OpE, 1, 0, edgeV}, {OpW, -1, 0, edgeV},
		{OpNE, 1, -1, corner}, {OpNW, -1, -1, corner},
		{OpSE, 1, 1, corner}, {OpSW, -1, 1, corner},
	}
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			for f := Frontier(0); f < opsPerBlock; f++ {
				m.SetLabel(LK23OpIndex(bx, x, y, f), fmt.Sprintf("b(%d,%d).%v", x, y, f))
			}
			main := LK23OpIndex(bx, x, y, OpMain)
			for _, d := range dirs {
				op := LK23OpIndex(bx, x, y, d.f)
				// Main writes the strip that the frontier op exports.
				m.AddSym(main, op, d.vol)
				nx, ny := x+d.dx, y+d.dy
				if nx >= 0 && nx < bx && ny >= 0 && ny < by {
					// The neighbour's main reads the exported strip.
					nmain := LK23OpIndex(bx, nx, ny, OpMain)
					m.AddSym(op, nmain, d.vol)
				}
			}
		}
	}
	return m
}

// Ring builds an n-entity ring: entity i exchanges vol bytes with (i+1) mod
// n. For n == 2 the single pair carries 2·vol (both directions coincide).
func Ring(n int, vol float64) *Matrix {
	m := New(n)
	if n < 2 {
		return m
	}
	for i := 0; i < n; i++ {
		m.AddSym(i, (i+1)%n, vol)
	}
	return m
}

// Random builds a random symmetric matrix: each pair communicates with
// probability density, with a volume uniform in [0, maxVol). The generator
// is deterministic for a given seed.
func Random(n int, density, maxVol float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				m.AddSym(i, j, rng.Float64()*maxVol)
			}
		}
	}
	return m
}

// RandomSparse builds a random symmetric bounded-degree matrix: every
// entity draws `degree` partners uniformly at random (self pairs and
// duplicate draws accumulate onto the same pair; self loops are skipped),
// each exchange uniform in [0, maxVol). Unlike Random, generation is
// O(n·degree) — per-pair coin flips would need O(n²) draws — so it scales to
// the 100k-task inputs of the scale benchmark tier. Deterministic for a
// given seed.
func RandomSparse(n, degree int, maxVol float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(n)
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			j := rng.Intn(n)
			vol := rng.Float64() * maxVol
			if j == i {
				continue
			}
			m.AddSym(i, j, vol)
		}
	}
	packRows(m.rows, m.rows)
	return m
}
