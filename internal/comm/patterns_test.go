package comm

import (
	"testing"
)

func TestStencil2DStructure(t *testing.T) {
	m := Stencil2DSparse(3, 3, 100, 1)
	if m.Order() != 9 {
		t.Fatalf("order = %d", m.Order())
	}
	if _, _, ok := transposeExact(m); !ok {
		t.Fatalf("stencil matrix not symmetric")
	}
	id := func(x, y int) int { return y*3 + x }
	// Horizontal/vertical neighbours get the edge volume.
	if got := m.At(id(0, 0), id(1, 0)); got != 100 {
		t.Errorf("east edge = %v, want 100", got)
	}
	if got := m.At(id(1, 1), id(1, 2)); got != 100 {
		t.Errorf("south edge = %v, want 100", got)
	}
	// Diagonal neighbours get the corner volume.
	if got := m.At(id(0, 0), id(1, 1)); got != 1 {
		t.Errorf("corner = %v, want 1", got)
	}
	// Non-neighbours communicate nothing.
	if got := m.At(id(0, 0), id(2, 2)); got != 0 {
		t.Errorf("non-neighbour = %v, want 0", got)
	}
	// No wrap-around.
	if got := m.At(id(0, 0), id(2, 0)); got != 0 {
		t.Errorf("wrap edge = %v, want 0", got)
	}
	// Centre block has 4 edge + 4 corner neighbours.
	if got := m.RowVolume(id(1, 1)); got != 4*100+4*1 {
		t.Errorf("centre row volume = %v, want 404", got)
	}
	if m.Label(id(2, 1)) != "b(2,1)" {
		t.Errorf("label = %q", m.Label(id(2, 1)))
	}
}

func TestStencil2DDegrees(t *testing.T) {
	m := Stencil2DSparse(4, 4, 1, 1)
	deg := func(i int) int {
		d := 0
		for j := 0; j < m.Order(); j++ {
			if j != i && m.At(i, j) > 0 {
				d++
			}
		}
		return d
	}
	// Corners have 3 neighbours, edges 5, interior 8.
	if got := deg(0); got != 3 {
		t.Errorf("corner degree = %d, want 3", got)
	}
	if got := deg(1); got != 5 {
		t.Errorf("edge degree = %d, want 5", got)
	}
	if got := deg(5); got != 8 {
		t.Errorf("interior degree = %d, want 8", got)
	}
}

func TestLK23OpLevel(t *testing.T) {
	bx, by, bw, bh := 2, 2, 64, 32
	m := LK23OpLevel(bx, by, bw, bh, 8)
	if m.Order() != bx*by*OpsPerBlock {
		t.Fatalf("order = %d, want %d", m.Order(), bx*by*OpsPerBlock)
	}
	if _, _, ok := transposeExact(m); !ok {
		t.Fatalf("op matrix not symmetric")
	}
	main00 := LK23OpIndex(bx, 0, 0, OpMain)
	e00 := LK23OpIndex(bx, 0, 0, OpE)
	s00 := LK23OpIndex(bx, 0, 0, OpS)
	n00 := LK23OpIndex(bx, 0, 0, OpN)
	se00 := LK23OpIndex(bx, 0, 0, OpSE)
	main10 := LK23OpIndex(bx, 1, 0, OpMain)
	main01 := LK23OpIndex(bx, 0, 1, OpMain)
	main11 := LK23OpIndex(bx, 1, 1, OpMain)

	// Main writes its east strip (blockH elements × 8 bytes).
	if got := m.At(main00, e00); got != float64(bh*8) {
		t.Errorf("main↔E = %v, want %v", got, bh*8)
	}
	// The east frontier feeds the east neighbour's main.
	if got := m.At(e00, main10); got != float64(bh*8) {
		t.Errorf("E↔neighbour main = %v, want %v", got, bh*8)
	}
	// South strip is blockW elements.
	if got := m.At(s00, main01); got != float64(bw*8) {
		t.Errorf("S↔south main = %v, want %v", got, bw*8)
	}
	// Corner export is a single element.
	if got := m.At(se00, main11); got != 8 {
		t.Errorf("SE↔diag main = %v, want 8", got)
	}
	// North frontier of a top-row block has no external reader...
	if got := m.RowVolume(n00); got != float64(bw*8) {
		t.Errorf("boundary frontier row volume = %v, want only main link %v", got, bw*8)
	}
	// ...but still talks to its own main.
	if got := m.At(n00, main00); got != float64(bw*8) {
		t.Errorf("boundary frontier↔main = %v, want %v", got, bw*8)
	}
	// Two mains never talk directly: halo always flows through frontier ops.
	if got := m.At(main00, main10); got != 0 {
		t.Errorf("main↔main = %v, want 0", got)
	}
	if got := m.Label(LK23OpIndex(bx, 1, 0, OpSW)); got != "b(1,0).SW" {
		t.Errorf("label = %q", got)
	}
}

func TestLK23MainDominatesOwnFrontiers(t *testing.T) {
	// The affinity between a main op and its own frontier ops must dominate
	// the affinity between ops of different blocks; this is what makes
	// TreeMatch co-locate each block's 9 threads (the paper's grouping).
	m := LK23OpLevel(3, 3, 128, 128, 8)
	main := LK23OpIndex(3, 1, 1, OpMain)
	ownTotal := 0.0
	for f := OpN; f <= OpSW; f++ {
		ownTotal += m.At(main, LK23OpIndex(3, 1, 1, f))
	}
	crossTotal := m.RowVolume(main) - ownTotal
	if !(ownTotal > 0 && crossTotal >= 0) {
		t.Fatalf("bad volumes: own=%v cross=%v", ownTotal, crossTotal)
	}
	if ownTotal < crossTotal {
		t.Errorf("own-block affinity %v < cross-block %v; grouping signal lost", ownTotal, crossTotal)
	}
}

func TestRingAllToAllRandom(t *testing.T) {
	r := Ring(5, 2)
	for i := 0; i < 5; i++ {
		// Each ring node has two neighbours at volume 2 each.
		if got := r.RowVolume(i); got != 4 {
			t.Errorf("ring row %d volume = %v, want 4", i, got)
		}
	}
	if Ring(1, 3).TotalVolume() != 0 {
		t.Errorf("degenerate ring has volume")
	}
	m1 := Random(10, 0.5, 100, 9)
	m2 := Random(10, 0.5, 100, 9)
	if !m1.Equal(m2, 0) {
		t.Errorf("Random not deterministic for equal seeds")
	}
	if _, _, ok := transposeExact(m1); !ok {
		t.Errorf("Random matrix not symmetric")
	}
	m3 := Random(10, 0.5, 100, 10)
	if m1.Equal(m3, 0) {
		t.Errorf("different seeds produced identical matrices")
	}
}

func TestFrontierString(t *testing.T) {
	if OpMain.String() != "main" || OpNE.String() != "NE" {
		t.Errorf("Frontier names wrong: %v %v", OpMain, OpNE)
	}
	if Frontier(42).String() == "" {
		t.Errorf("out-of-range Frontier empty")
	}
}
