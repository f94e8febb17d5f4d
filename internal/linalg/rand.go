package linalg

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64* with a
// splitmix64 seeding step). Every stochastic component in the repository —
// workload generators, randomized TSVD, GMM initialization, random feature
// maps — draws from an explicitly seeded RNG so experiments are exactly
// reproducible run to run.
type RNG struct {
	state uint64
	// Cached second Gaussian from the Box-Muller pair.
	gauss   float64
	hasGaus bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	// splitmix64 scramble so nearby seeds give unrelated streams.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x2545F4914F6CDD1D
	}
	return &RNG{state: z}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics for n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("linalg: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Gaussian returns a standard normal sample via Box-Muller.
func (r *RNG) Gaussian() float64 {
	if r.hasGaus {
		r.hasGaus = false
		return r.gauss
	}
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		mag := math.Sqrt(-2 * math.Log(u1))
		r.gauss = mag * math.Sin(2*math.Pi*u2)
		r.hasGaus = true
		return mag * math.Cos(2*math.Pi*u2)
	}
}

// GaussianVector returns n iid standard normal samples.
func (r *RNG) GaussianVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Gaussian()
	}
	return v
}

// GaussianMatrix returns a rows x cols matrix of iid standard normals.
func (r *RNG) GaussianMatrix(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Gaussian()
	}
	return m
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
