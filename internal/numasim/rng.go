package numasim

import "math/rand"

// replaySource serves the stream of rand.NewSource(seed) bit for bit
// without filling its 607-word register, which the simulated OS scheduler
// would otherwise seed (≈ 5 KB and 1,841 modular steps) for every unbound
// Proc. Two facts about a freshly seeded Go 1 source make that cheap:
//
//   - Draw k ≤ rngTap reads only seeded words: it is vec[334−k] + vec[607−k].
//   - Seeded word i is x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i],
//     where x[n] = s·48271ⁿ mod (2³¹−1) for the normalised seed s.
//
// So a draw is six modular products against the shared seedPowers table.
// Draw rngTap+1 builds rand.NewSource(s) and skips the rngTap draws already
// served; from there on the source is math/rand's own generator.
type replaySource struct {
	seed uint64        // normalised seed s, in [1, rngMod)
	n    int           // draws served from the seeded words, at most rngTap
	real rand.Source64 // math/rand's generator, built at draw rngTap+1
}

const (
	rngLen = 607       // words in math/rand's register
	rngTap = 273       // its feedback tap
	rngMod = 1<<31 - 1 // modulus of its seeding generator
)

var (
	// seedPowers[3i+j] is 48271^(21+3i+j) mod rngMod: the multiplier of s in
	// seeded word i's seeding step j.
	seedPowers [3 * rngLen]uint64
	// rngCooked is math/rand's seed-independent mask of the seeded words.
	rngCooked [rngLen]uint64
)

// init fills seedPowers and recovers rngCooked from math/rand itself. A
// source's stream is the lagged Fibonacci sequence y[n] = y[n−607] +
// y[n−273], whose first 607 terms are its seeded register (y[j] is word
// (333−j) mod 607) and whose term 606+k is draw k. So one lap of draws of a
// reference source inverts, by subtraction, to its register, and the
// register without its seed bits is the mask.
func init() {
	x := uint64(1)
	for n := 1; n <= 20+len(seedPowers); n++ {
		if x = x * 48271 % rngMod; n > 20 {
			seedPowers[n-21] = x
		}
	}
	ref := rand.NewSource(1).(rand.Source64)
	var y [2 * rngLen]uint64
	for n := rngLen; n < len(y); n++ {
		y[n] = ref.Uint64()
	}
	for n := len(y) - 1; n >= rngLen; n-- {
		y[n-rngLen] = y[n] - y[n-rngTap]
	}
	src := replaySource{seed: 1}
	for j := range rngLen {
		i := (2*rngLen - rngTap - 1 - j) % rngLen
		rngCooked[i] = y[j] ^ src.word(i) // word(i) reads rngCooked[i], still 0
	}
}

// Seed resets the source to the stream of rand.NewSource(seed), normalising
// the seed the way math/rand does.
func (r *replaySource) Seed(seed int64) {
	if seed %= rngMod; seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*r = replaySource{seed: uint64(seed)}
}

// Uint64 returns the next draw, as rand.NewSource's Uint64 would.
func (r *replaySource) Uint64() uint64 {
	if r.n < rngTap {
		r.n++
		return r.word(rngLen-rngTap-r.n) + r.word(rngLen-r.n)
	}
	if r.real == nil {
		r.real = rand.NewSource(int64(r.seed)).(rand.Source64)
		for range rngTap {
			r.real.Uint64()
		}
	}
	return r.real.Uint64()
}

// Int63 returns the next draw masked to 63 bits, as math/rand's Int63 does.
func (r *replaySource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// word returns seeded word i of the register rand.NewSource(s) would fill.
func (r *replaySource) word(i int) uint64 {
	p := seedPowers[3*i : 3*i+3]
	return r.seed*p[0]%rngMod<<40 ^ r.seed*p[1]%rngMod<<20 ^ r.seed*p[2]%rngMod ^ rngCooked[i]
}
