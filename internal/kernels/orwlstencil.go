package kernels

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/orwl"
)

// BuildOptions configures the ORWL implementation of a block stencil.
type BuildOptions struct {
	// BX, BY is the block grid (one main + eight frontier tasks per block).
	BX, BY int
	// Iters is the number of Jacobi iterations.
	Iters int
	// Costs feed the machine simulator; use LK23Costs or HeatCosts.
	Costs Costs
	// Grid, when non-nil, enables real arithmetic: block payloads are
	// filled from it and the run produces a Result matching RunJacobi.
	// When nil the program is cost-only: the full lock protocol executes
	// and every virtual-time cost is charged, but no cell is computed —
	// this is how the paper-scale 16384×16384 runs are simulated without
	// 12 GiB of arrays.
	Grid *Grid
	// Cell is the stencil update; required when Grid is non-nil.
	Cell CellFunc
}

// elemBytes is the element size: double precision.
const elemBytes = 8

// Program is a built ORWL stencil: the paper's §III decomposition. Task IDs
// follow comm.LK23OpIndex, so the runtime's extracted affinity matrix is
// directly comparable to comm.LK23OpLevel.
type Program struct {
	RT   *orwl.Runtime
	Part Partition
	Opts BuildOptions

	// Tasks holds all 9·BX·BY tasks indexed by comm.LK23OpIndex.
	Tasks []*orwl.Task
	// BlockLoc[y][x] is the block-interior location of block (x,y).
	BlockLoc [][]*orwl.Location
	// FrontierLoc[y][x][d-1] is the location frontier op d exports into
	// (d in OpN..OpSW).
	FrontierLoc [][][]*orwl.Location

	rows, cols int
}

// frontierDirs maps each frontier op to its (dx,dy) block offset; y grows
// southward (with the row index).
var frontierDirs = map[comm.Frontier][2]int{
	comm.OpN: {0, -1}, comm.OpS: {0, 1}, comm.OpE: {1, 0}, comm.OpW: {-1, 0},
	comm.OpNE: {1, -1}, comm.OpNW: {-1, -1}, comm.OpSE: {1, 1}, comm.OpSW: {-1, 1},
}

// opposite returns the frontier direction pointing back at the sender.
func opposite(d comm.Frontier) comm.Frontier {
	switch d {
	case comm.OpN:
		return comm.OpS
	case comm.OpS:
		return comm.OpN
	case comm.OpE:
		return comm.OpW
	case comm.OpW:
		return comm.OpE
	case comm.OpNE:
		return comm.OpSW
	case comm.OpNW:
		return comm.OpSE
	case comm.OpSE:
		return comm.OpNW
	case comm.OpSW:
		return comm.OpNE
	default:
		panic("kernels: not a frontier direction")
	}
}

// stripLen returns the number of elements frontier op d of a block exports:
// a full edge for N/S/E/W, one corner element otherwise.
func stripLen(b Block, d comm.Frontier) int {
	switch d {
	case comm.OpN, comm.OpS:
		return b.W
	case comm.OpE, comm.OpW:
		return b.H
	default:
		return 1
	}
}

// Build constructs the ORWL program for a rows×cols stencil decomposed into
// opts.BX×opts.BY blocks on the given runtime. Placement (Bind/BindControl)
// is applied by the caller between Build and RT.Run.
func Build(rt *orwl.Runtime, rows, cols int, opts BuildOptions) (*Program, error) {
	if opts.Iters <= 0 {
		return nil, fmt.Errorf("kernels: Iters must be positive")
	}
	if opts.Grid != nil {
		if opts.Grid.Rows != rows || opts.Grid.Cols != cols {
			return nil, fmt.Errorf("kernels: grid is %dx%d, want %dx%d",
				opts.Grid.Rows, opts.Grid.Cols, rows, cols)
		}
		if opts.Cell == nil {
			return nil, fmt.Errorf("kernels: real mode requires a Cell function")
		}
	}
	part, err := NewPartition(rows, cols, opts.BX, opts.BY)
	if err != nil {
		return nil, err
	}
	p := &Program{RT: rt, Part: part, Opts: opts, rows: rows, cols: cols}

	// Locations first: every block's interior plus its eight frontier
	// export locations, in block-major order.
	p.BlockLoc = make([][]*orwl.Location, opts.BY)
	p.FrontierLoc = make([][][]*orwl.Location, opts.BY)
	for y := 0; y < opts.BY; y++ {
		p.BlockLoc[y] = make([]*orwl.Location, opts.BX)
		p.FrontierLoc[y] = make([][]*orwl.Location, opts.BX)
		for x := 0; x < opts.BX; x++ {
			b := part.Block(x, y)
			locB := rt.NewLocation(fmt.Sprintf("B(%d,%d)", x, y), int64(b.Cells())*elemBytes)
			p.BlockLoc[y][x] = locB
			if opts.Grid != nil {
				buf := make([]float64, b.Cells())
				for r := 0; r < b.H; r++ {
					copy(buf[r*b.W:(r+1)*b.W], opts.Grid.ZA[(b.R0+r)*cols+b.C0:(b.R0+r)*cols+b.C0+b.W])
				}
				locB.SetData(buf)
			}
			frontiers := make([]*orwl.Location, 8)
			for d := comm.OpN; d <= comm.OpSW; d++ {
				n := stripLen(b, d)
				loc := rt.NewLocation(fmt.Sprintf("F(%d,%d).%v", x, y, d), int64(n)*elemBytes)
				if opts.Grid != nil {
					loc.SetData(make([]float64, n))
				}
				frontiers[int(d)-1] = loc
			}
			p.FrontierLoc[y][x] = frontiers
		}
	}

	// Tasks in comm.LK23OpIndex order: main then the 8 frontier ops, block
	// by block. The canonical ranks put every frontier handle (rank 0)
	// ahead of every main handle (rank 1), which yields the FIFO cycle
	//   B: [R(frontiers)×8, W(main)]   F: [W(frontier), R(neighbour main)]
	// i.e. frontiers export the iteration-k state before the mains write
	// iteration k+1 — the Jacobi dataflow of the paper's implementation.
	for y := 0; y < opts.BY; y++ {
		for x := 0; x < opts.BX; x++ {
			p.addMainTask(x, y)
			for d := comm.OpN; d <= comm.OpSW; d++ {
				p.addFrontierTask(x, y, d)
			}
		}
	}
	p.Tasks = rt.Tasks()
	return p, nil
}

// neighbour returns the block coordinates in direction d from (x,y) and
// whether they are inside the block grid.
func (p *Program) neighbour(x, y int, d comm.Frontier) (int, int, bool) {
	dd := frontierDirs[d]
	nx, ny := x+dd[0], y+dd[1]
	return nx, ny, nx >= 0 && nx < p.Opts.BX && ny >= 0 && ny < p.Opts.BY
}

// addMainTask creates the main operation of block (x,y): write handle on
// the block interior plus read handles on the frontier locations its
// neighbours export toward it.
func (p *Program) addMainTask(x, y int) {
	b := p.Part.Block(x, y)
	task := p.RT.AddTask(fmt.Sprintf("b(%d,%d).main", x, y), nil)
	wB := task.NewHandleVol(p.BlockLoc[y][x], orwl.Write, float64(b.Cells())*elemBytes, 1)

	// Read handles on the neighbours' frontiers pointing at this block,
	// in fixed direction order.
	type haloIn struct {
		d comm.Frontier
		h *orwl.Handle
		n int // strip length
	}
	var halos []haloIn
	for d := comm.OpN; d <= comm.OpSW; d++ {
		nx, ny, ok := p.neighbour(x, y, d)
		if !ok {
			continue
		}
		exp := opposite(d) // the neighbour's op that exports toward us
		loc := p.FrontierLoc[ny][nx][int(exp)-1]
		n := stripLen(p.Part.Block(nx, ny), exp)
		h := task.NewHandleVol(loc, orwl.Read, float64(n)*elemBytes, 1)
		halos = append(halos, haloIn{d, h, n})
	}

	realMode := p.Opts.Grid != nil
	var scratch []float64
	haloBuf := map[comm.Frontier][]float64{}
	if realMode {
		scratch = make([]float64, b.Cells())
		for _, hi := range halos {
			haloBuf[hi.d] = make([]float64, hi.n)
		}
	}
	cells := float64(b.Cells())
	costs := p.Opts.Costs

	task.SetFunc(func(t *orwl.Task) error {
		for it := 0; it < p.Opts.Iters; it++ {
			last := it == p.Opts.Iters-1
			if err := wB.Acquire(); err != nil {
				return err
			}
			for _, hi := range halos {
				if err := hi.h.Acquire(); err != nil {
					return err
				}
				if realMode {
					src, err := hi.h.Float64s()
					if err != nil {
						return err
					}
					copy(haloBuf[hi.d], src)
				}
				if err := releaseOrNext(hi.h, last); err != nil {
					return err
				}
			}
			if realMode {
				za, err := wB.Float64s()
				if err != nil {
					return err
				}
				p.computeBlock(b, za, scratch, haloBuf)
				copy(za, scratch)
			}
			if proc := t.Proc(); proc != nil {
				proc.Compute(costs.FlopsPerCell * cells)
				proc.SweepWorkingSet(p.BlockLoc[y][x].Region(), int64(costs.BytesPerCell*cells))
			}
			if err := releaseOrNext(wB, last); err != nil {
				return err
			}
			// After the final release: EndIteration is an epoch barrier
			// point and must not be reached holding a grant.
			t.EndIteration()
		}
		return nil
	})
}

// addFrontierTask creates frontier op d of block (x,y): it reads the block
// interior and exports the d-side strip into its own location.
func (p *Program) addFrontierTask(x, y int, d comm.Frontier) {
	b := p.Part.Block(x, y)
	n := stripLen(b, d)
	task := p.RT.AddTask(fmt.Sprintf("b(%d,%d).%v", x, y, d), nil)
	rB := task.NewHandleVol(p.BlockLoc[y][x], orwl.Read, float64(n)*elemBytes, 0)
	wF := task.NewHandleVol(p.FrontierLoc[y][x][int(d)-1], orwl.Write, float64(n)*elemBytes, 0)

	realMode := p.Opts.Grid != nil
	var strip []float64
	if realMode {
		strip = make([]float64, n)
	}

	task.SetFunc(func(t *orwl.Task) error {
		for it := 0; it < p.Opts.Iters; it++ {
			last := it == p.Opts.Iters-1
			if err := rB.Acquire(); err != nil {
				return err
			}
			if realMode {
				za, err := rB.Float64s()
				if err != nil {
					return err
				}
				extractStrip(b, za, d, strip)
			}
			if err := releaseOrNext(rB, last); err != nil {
				return err
			}
			if err := wF.Acquire(); err != nil {
				return err
			}
			if realMode {
				dst, err := wF.Float64s()
				if err != nil {
					return err
				}
				copy(dst, strip)
			}
			if proc := t.Proc(); proc != nil {
				proc.ComputeCycles(float64(n)) // strip copy
			}
			if err := releaseOrNext(wF, last); err != nil {
				return err
			}
			t.EndIteration()
		}
		return nil
	})
}

// extractStrip copies the d-side edge or corner of the block's za buffer
// (H×W row-major) into dst.
func extractStrip(b Block, za []float64, d comm.Frontier, dst []float64) {
	switch d {
	case comm.OpN:
		copy(dst, za[:b.W])
	case comm.OpS:
		copy(dst, za[(b.H-1)*b.W:])
	case comm.OpE:
		for r := 0; r < b.H; r++ {
			dst[r] = za[r*b.W+b.W-1]
		}
	case comm.OpW:
		for r := 0; r < b.H; r++ {
			dst[r] = za[r*b.W]
		}
	case comm.OpNE:
		dst[0] = za[b.W-1]
	case comm.OpNW:
		dst[0] = za[0]
	case comm.OpSE:
		dst[0] = za[b.H*b.W-1]
	case comm.OpSW:
		dst[0] = za[(b.H-1)*b.W]
	}
}

// computeBlock performs one Jacobi sweep of the block into scratch, using
// halo strips for the off-block neighbours. Global boundary cells are
// copied unchanged.
func (p *Program) computeBlock(b Block, za, scratch []float64, halo map[comm.Frontier][]float64) {
	cell := p.Opts.Cell
	for r := 0; r < b.H; r++ {
		gk := b.R0 + r
		for c := 0; c < b.W; c++ {
			gj := b.C0 + c
			i := r*b.W + c
			if gk == 0 || gk == p.rows-1 || gj == 0 || gj == p.cols-1 {
				scratch[i] = za[i]
				continue
			}
			var n, s, e, w float64
			if r > 0 {
				n = za[i-b.W]
			} else {
				n = halo[comm.OpN][c]
			}
			if r < b.H-1 {
				s = za[i+b.W]
			} else {
				s = halo[comm.OpS][c]
			}
			if c < b.W-1 {
				e = za[i+1]
			} else {
				e = halo[comm.OpE][r]
			}
			if c > 0 {
				w = za[i-1]
			} else {
				w = halo[comm.OpW][r]
			}
			scratch[i] = cell(za[i], n, s, e, w, gk, gj)
		}
	}
}

// releaseOrNext releases the handle after the final iteration and
// re-requests it (the iterative ORWL primitive) otherwise.
func releaseOrNext(h *orwl.Handle, last bool) error {
	if last {
		return h.Release()
	}
	return h.ReleaseAndRequest()
}

// Result assembles the final grid from the block payloads after RT.Run has
// returned. Only valid for real-mode programs.
func (p *Program) Result() (*Grid, error) {
	if p.Opts.Grid == nil {
		return nil, fmt.Errorf("kernels: Result on a cost-only program")
	}
	out := p.Opts.Grid.Clone()
	for y := 0; y < p.Opts.BY; y++ {
		for x := 0; x < p.Opts.BX; x++ {
			b := p.Part.Block(x, y)
			buf, ok := p.BlockLoc[y][x].PeekData().([]float64)
			if !ok {
				return nil, fmt.Errorf("kernels: block (%d,%d) payload missing", x, y)
			}
			for r := 0; r < b.H; r++ {
				copy(out.ZA[(b.R0+r)*p.cols+b.C0:(b.R0+r)*p.cols+b.C0+b.W], buf[r*b.W:(r+1)*b.W])
			}
		}
	}
	return out, nil
}

// Heavy is the heavy-task mask of placement.SetContention: the main
// operations, one per block, sweep the block's working set every iteration,
// while frontier operations only move strips.
func (p *Program) Heavy() []bool {
	heavy := make([]bool, len(p.Tasks))
	for i := range heavy {
		heavy[i] = i%comm.OpsPerBlock == int(comm.OpMain)
	}
	return heavy
}
