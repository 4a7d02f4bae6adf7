package numasim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// oracleSeeds cross every branch of math/rand's seed normalisation: zero
// (which becomes 89482311), ±1, multiples of the modulus, seeds at and past
// 2³¹, large negatives, and the per-task seeds ORWL and OpenMP derive.
var oracleSeeds = []int64{
	0, 1, -1, 89482311,
	rngMod, -rngMod, 2 * rngMod, 1000 * rngMod, rngMod - 1, rngMod + 1,
	1 << 31, 1<<31 + 1, 1 << 40, 1<<62 + 12345, math.MaxInt64,
	-1 << 31, -(1 << 40) - 3, math.MinInt64 + 1, math.MinInt64,
	1 + 7919*1727, 42 + 104729*3,
}

// drawsMatch compares n draws of replaySource against rand.NewSource(seed),
// taking draw k through Int63 when int63(k) holds and Uint64 otherwise.
func drawsMatch(t *testing.T, seed int64, n int, int63 func(k int) bool) {
	t.Helper()
	var got replaySource
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= n; k++ {
		if int63(k) {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, k, g, w)
		}
	}
}

// TestReplaySourceMatchesMathRand is the oracle: 2,000 draws, across the
// switch to the real generator at draw rngTap+1, equal rand.NewSource's for
// every seed, through Int63 alone, Uint64 alone and the two interleaved.
func TestReplaySourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds {
		drawsMatch(t, seed, 2000, func(int) bool { return true })
		drawsMatch(t, seed, 2000, func(int) bool { return false })
		drawsMatch(t, seed, 2000, func(k int) bool { return k%2 == 1 })
	}
}

// TestUnboundProcMatchesMathRand drives an unbound Proc and one built the
// way NewUnboundProc did before it replayed the stream, with its own
// rand.New(rand.NewSource(seed)), through 1,000 scheduling points: PU,
// migration count and clock agree after every one.
func TestUnboundProcMatchesMathRand(t *testing.T) {
	m := paperMachine(t)
	for _, seed := range oracleSeeds {
		p := m.NewUnboundProc("u", seed)
		q := &Proc{m: m, name: "u", rng: rand.New(rand.NewSource(seed))}
		q.pu = q.rng.Intn(m.topo.NumPUs())
		for k := 0; k <= 1000; k++ {
			if p.PU() != q.PU() || p.Stats().Migrations != q.Stats().Migrations || p.Clock() != q.Clock() {
				t.Fatalf("seed %d after %d Reschedules: (PU %d, %d migrations, clock %v), want (%d, %d, %v)",
					seed, k, p.PU(), p.Stats().Migrations, p.Clock(), q.PU(), q.Stats().Migrations, q.Clock())
			}
			p.Reschedule(0.25)
			q.Reschedule(0.25)
		}
	}
}

// TestUnboundProcWork pins the work of a roaming task: NewUnboundProc and
// 126 Reschedules, more than LK23's 126 draws per task (1 + 100 iterations
// + ≈ 25 migrations), allocate under 256 bytes and never build the real
// generator, while draw rngTap+1 builds it exactly once.
func TestUnboundProcWork(t *testing.T) {
	m := paperMachine(t)
	var p *Proc
	run := func() {
		p = m.NewUnboundProc("u", 7)
		for range 126 {
			p.Reschedule(0.25)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 256 {
		t.Errorf("NewUnboundProc and 126 Reschedules allocate %d bytes, want < 256", got)
	}
	if p.src.real != nil {
		t.Errorf("%d draws built the real generator", p.src.n)
	}

	var r replaySource
	r.Seed(7)
	for range rngTap {
		r.Uint64()
	}
	if r.real != nil {
		t.Fatalf("draw %d built the real generator", rngTap)
	}
	r.Uint64()
	built := r.real
	if built == nil {
		t.Fatalf("draw %d did not build the real generator", rngTap+1)
	}
	for range 1000 {
		r.Uint64()
	}
	if r.real != built {
		t.Errorf("the real generator was built again after draw %d", rngTap+1)
	}
}

// FuzzUnboundDraws: any seed's first n%1024 draws equal rand.NewSource(seed)'s,
// each taken through Int63 or Uint64 as a bit of n says.
func FuzzUnboundDraws(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed, uint16(rngTap+2))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		drawsMatch(t, seed, int(n%1024), func(k int) bool { return n>>(k%16)&1 == 1 })
	})
}
