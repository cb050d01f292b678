// Package workload generates the request streams of the paper's
// evaluation (§V-C): Poisson arrivals, a Dropbox-derived file-size
// mixture (Drago et al. [42]), and PUT/GET mixes, all from a seeded
// deterministic PRNG so every run replays identically.
package workload

import (
	"math"

	"dcsctrl/internal/sim"
)

// Rand is a small deterministic PRNG (xorshift64*), independent of
// math/rand so model evolution never changes replay behaviour.
type Rand struct {
	state uint64
}

// NewRand returns a PRNG seeded with seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean
// (inter-arrival times of a Poisson process).
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpTime returns an exponential sim.Time with the given mean.
func (r *Rand) ExpTime(mean sim.Time) sim.Time {
	return sim.Time(r.Exp(float64(mean)))
}

// SizeBucket is one segment of a file-size mixture: sizes uniform in
// [Min,Max] chosen with probability Weight (after normalization).
type SizeBucket struct {
	Weight   float64
	Min, Max int
}

// SizeDist is a bucketized file-size distribution.
type SizeDist struct {
	Buckets []SizeBucket
	total   float64
}

// NewSizeDist normalizes the bucket weights.
func NewSizeDist(buckets []SizeBucket) *SizeDist {
	d := &SizeDist{Buckets: buckets}
	for _, b := range buckets {
		if b.Min <= 0 || b.Max < b.Min || b.Weight < 0 {
			panic("workload: bad size bucket")
		}
		d.total += b.Weight
	}
	if d.total <= 0 {
		panic("workload: empty size distribution")
	}
	return d
}

// DropboxSizes is the personal-cloud-storage mixture of [42], scaled
// to the testbed (capped at 4 MB so discrete-event runs stay
// tractable; the cap is documented in EXPERIMENTS.md).
func DropboxSizes() *SizeDist {
	return NewSizeDist([]SizeBucket{
		{Weight: 0.30, Min: 4 << 10, Max: 32 << 10},
		{Weight: 0.40, Min: 32 << 10, Max: 256 << 10},
		{Weight: 0.25, Min: 256 << 10, Max: 1 << 20},
		{Weight: 0.05, Min: 1 << 20, Max: 4 << 20},
	})
}

// Sample draws a size.
func (d *SizeDist) Sample(r *Rand) int {
	x := r.Float64() * d.total
	for _, b := range d.Buckets {
		if x < b.Weight || b == d.Buckets[len(d.Buckets)-1] {
			return b.Min + r.Intn(b.Max-b.Min+1)
		}
		x -= b.Weight
	}
	return d.Buckets[len(d.Buckets)-1].Max
}

// Mean returns the distribution's expected size.
func (d *SizeDist) Mean() float64 {
	var m float64
	for _, b := range d.Buckets {
		m += b.Weight / d.total * float64(b.Min+b.Max) / 2
	}
	return m
}

// OpKind is a storage operation type.
type OpKind int

// Request kinds.
const (
	OpGET OpKind = iota
	OpPUT
)

func (k OpKind) String() string {
	if k == OpGET {
		return "GET"
	}
	return "PUT"
}

// Request is one generated storage request.
type Request struct {
	Kind OpKind
	Size int
}

// Mix generates GET/PUT requests with Dropbox-like sizes.
type Mix struct {
	rng      *Rand
	sizes    *SizeDist
	getRatio float64
}

// NewMix returns a generator; getRatio is the fraction of GETs.
func NewMix(seed uint64, sizes *SizeDist, getRatio float64) *Mix {
	if getRatio < 0 || getRatio > 1 {
		panic("workload: GET ratio out of range")
	}
	return &Mix{rng: NewRand(seed), sizes: sizes, getRatio: getRatio}
}

// Next draws the next request.
func (m *Mix) Next() Request {
	k := OpPUT
	if m.rng.Float64() < m.getRatio {
		k = OpGET
	}
	return Request{Kind: k, Size: m.sizes.Sample(m.rng)}
}
