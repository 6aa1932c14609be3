package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random stream. Every stochastic component of
// the testbed (traffic arrival processes, Mirai scanner target selection,
// flood payload generation, ML initialization) draws from its own named
// stream so that changing one component does not perturb the others — the
// same discipline NS-3 enforces with its RngStream substreams.
type RNG struct {
	r *rand.Rand
	// src is r's source, held so Bytes can draw from it without going
	// through r. readVal/readPos are Bytes' carry between calls, the same
	// pair math/rand.Rand keeps privately for Read: the undelivered bytes
	// of the last Int63 and how many of them are left.
	src     *xoshiroSource
	readVal int64
	readPos int8
}

// xoshiroSource is a xoshiro256++ generator behind the math/rand.Source64
// interface. The default math/rand source carries 607 words of state and
// spends ~20k cycles in Seed() expanding it — at fleet scale (one stream
// per client app, per lossy link direction, per churned device) that
// seeding dominated topology start-up and its 4.9 KB state dominated
// per-stream heap. xoshiro256++ seeds in four SplitMix64 steps, holds 32
// bytes of state, and passes the same statistical batteries, so swapping
// the source keeps every stream deterministic per seed while removing the
// construction wall.
type xoshiroSource struct {
	s [4]uint64
}

var _ rand.Source64 = (*xoshiroSource)(nil)

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Seed implements rand.Source: the four state words are the SplitMix64
// expansion of the seed (the initialization the xoshiro authors prescribe,
// and the same primitive KeyedStream derives child seeds with).
func (x *xoshiroSource) Seed(seed int64) {
	v := uint64(seed)
	for i := range x.s {
		v = SplitMix64(v)
		x.s[i] = v
	}
}

// Uint64 implements rand.Source64 (xoshiro256++ next()).
func (x *xoshiroSource) Uint64() uint64 {
	var r uint64
	r, x.s[0], x.s[1], x.s[2], x.s[3] = xoshiroNext(x.s[0], x.s[1], x.s[2], x.s[3])
	return r
}

// xoshiroNext is one xoshiro256++ step: the output for state s0..s3 and the
// state after it. It takes and returns the words by value, so a loop that
// draws many keeps them in registers.
func xoshiroNext(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	r = rotl(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return r, s0, s1, s2, s3
}

// Int63 implements rand.Source.
func (x *xoshiroSource) Int63() int64 { return int64(x.Uint64() >> 1) }

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	src := &xoshiroSource{}
	src.Seed(seed)
	return &RNG{r: rand.New(src), src: src}
}

// Substream derives an independent child stream from a parent seed and a
// component label, by mixing the label into the seed with an FNV-style hash.
func Substream(seed int64, label string) *RNG {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001B3
	}
	return NewRNG(int64(h))
}

// SplitMix64 is the SplitMix64 finalizer: a bijective avalanche mix of x.
// It is the seed-derivation primitive behind KeyedStream — strong enough
// that adjacent structural keys (link 3 vs link 4, direction 0 vs 1) yield
// statistically independent streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// KeyedStream derives an independent stream from a root seed and a chain of
// structural keys — (link index, direction), (device id), and so on. Unlike
// Substream's label hashing, the keys are raw integers, so per-entity
// streams can be derived in hot construction paths without formatting
// strings. Entities keyed this way draw from their own stream regardless of
// how events interleave globally, which is what keeps random behaviour
// byte-identical between the serial scheduler and the partitioned engine.
func KeyedStream(seed int64, keys ...uint64) *RNG {
	h := SplitMix64(uint64(seed))
	for _, k := range keys {
		h = SplitMix64(h ^ k)
	}
	return NewRNG(int64(h))
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uint32 returns a uniform uint32.
func (g *RNG) Uint32() uint32 { return g.r.Uint32() }

// NormFloat64 returns a standard-normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponential variate with the given mean (>0). Exponential
// inter-arrival times drive the Poisson arrival processes used for benign
// request workloads.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Float64()*(hi-lo)
}

// Pareto returns a bounded Pareto variate with shape alpha and scale xm.
// Heavy-tailed Pareto sizes model file-transfer and video-segment lengths.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return xm
	}
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly chosen element of choices.
func Pick[T any](g *RNG, choices []T) T {
	return choices[g.Intn(len(choices))]
}

// Bytes fills b with pseudo-random bytes (flood payloads, stream data).
//
// The stream is math/rand.(*Rand).Read's, bit for bit: every Int63 yields
// seven bytes, least significant first, and the bytes a call leaves over
// start the next call, whatever Int63/Float64 draws happen in between. Only
// the stores differ: whole draws go out as one little-endian word instead of
// seven byte stores through the Source interface.
func (g *RNG) Bytes(b []byte) {
	val, pos := g.readVal, g.readPos
	i := 0
	for ; pos > 0 && i < len(b); i++ {
		b[i] = byte(val)
		val >>= 8
		pos--
	}
	// Each word store writes eight bytes; the eighth (the draw's top bits)
	// is overwritten by the next draw, and there always is one, because the
	// loop stops while at least one byte is still to fill. The loop steps
	// the source's state in locals, and writes it back once.
	if len(b)-i >= 8 {
		s0, s1, s2, s3 := g.src.s[0], g.src.s[1], g.src.s[2], g.src.s[3]
		for ; len(b)-i >= 8; i += 7 {
			var r uint64
			r, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			binary.LittleEndian.PutUint64(b[i:], r>>1) // Int63
		}
		g.src.s = [4]uint64{s0, s1, s2, s3}
	}
	for ; i < len(b); i++ {
		if pos == 0 {
			val = g.src.Int63()
			pos = 7
		}
		b[i] = byte(val)
		val >>= 8
		pos--
	}
	g.readVal, g.readPos = val, pos
}
