package gmm

import (
	"math"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// blobs generates n points from k well-separated Gaussian clusters,
// returning the data and each point's cluster.
func blobs(seed uint64, n, d, k int) (*engine.Collection, []int) {
	rng := linalg.NewRNG(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = float64(c*10) + rng.Gaussian()
		}
	}
	items := make([]any, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		x := make([]float64, d)
		for j := range x {
			x[j] = centers[c][j] + 0.3*rng.Gaussian()
		}
		items[i] = x
	}
	return engine.FromSlice(items, 4), truth
}

func fetchOf(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }

func TestGMMSeparatesClusters(t *testing.T) {
	data, truth := blobs(1, 300, 4, 3)
	g := &GMM{K: 3, Iters: 15, Seed: 9}
	model := g.Fit(engine.NewContext(4), fetchOf(data), nil).(*PosteriorTransform)

	// Every point should be confidently assigned; points in the same true
	// cluster should share an argmax component.
	assign := make([]int, data.Count())
	for i, it := range data.Collect() {
		post := model.Apply(it).([]float64)
		var sum float64
		for _, p := range post {
			if p < -1e-12 {
				t.Fatal("negative posterior")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posteriors sum to %g", sum)
		}
		assign[i] = linalg.ArgMax(post)
	}
	// Purity: majority component per true cluster covers >90%.
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		total := 0
		for i, a := range assign {
			if truth[i] == c {
				counts[a]++
				total++
			}
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if float64(best)/float64(total) < 0.9 {
			t.Errorf("cluster %d purity %.2f < 0.9", c, float64(best)/float64(total))
		}
	}
}

func TestGMMWeightsSumToOne(t *testing.T) {
	data, _ := blobs(2, 120, 3, 2)
	g := &GMM{K: 2, Iters: 8, Seed: 3}
	model := g.Fit(engine.NewContext(2), fetchOf(data), nil).(*PosteriorTransform).Model
	var sum float64
	for _, w := range model.Weights {
		if w <= 0 {
			t.Errorf("non-positive weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
	for i := 0; i < model.K(); i++ {
		for j := 0; j < model.Dim(); j++ {
			if model.Vars.At(i, j) < 1e-6 {
				t.Error("variance fell below the floor")
			}
		}
	}
}

func TestGMMIsIterative(t *testing.T) {
	var est core.EstimatorOp = &GMM{K: 4, Iters: 7}
	it, ok := est.(core.Iterative)
	if !ok {
		t.Fatal("GMM must be Iterative")
	}
	if it.Weight() != 7 {
		t.Errorf("Weight = %d, want 7", it.Weight())
	}
}

func TestGMMFetchesOncePerIteration(t *testing.T) {
	data, _ := blobs(3, 60, 2, 2)
	fetches := 0
	fetch := func() *engine.Collection { fetches++; return data }
	(&GMM{K: 2, Iters: 5, Seed: 1}).Fit(engine.NewContext(2), fetch, nil)
	// 1 probe fetch + 5 EM passes.
	if fetches != 6 {
		t.Errorf("fetches = %d, want 6", fetches)
	}
}

func TestGMMClampsKToN(t *testing.T) {
	data, _ := blobs(4, 3, 2, 1)
	model := (&GMM{K: 10, Iters: 2, Seed: 1}).Fit(engine.NewContext(1), fetchOf(data), nil).(*PosteriorTransform).Model
	if model.K() != 3 {
		t.Errorf("K = %d, want clamped to 3", model.K())
	}
}

// naivePosteriors is Posteriors as first written: every logarithm taken
// per descriptor. The tabulated version must match it bit for bit.
func naivePosteriors(m *Model, x []float64) []float64 {
	logp := make([]float64, m.K())
	maxLog := math.Inf(-1)
	for c := range logp {
		lp := math.Log(m.Weights[c] + 1e-300)
		mu, va := m.Means.Row(c), m.Vars.Row(c)
		for j, xj := range x {
			d := xj - mu[j]
			lp -= 0.5 * (d*d/va[j] + math.Log(2*math.Pi*va[j]))
		}
		logp[c] = lp
		maxLog = math.Max(maxLog, lp)
	}
	var z float64
	for c := range logp {
		logp[c] = math.Exp(logp[c] - maxLog)
		z += logp[c]
	}
	for c := range logp {
		logp[c] /= z
	}
	return logp
}

func TestPosteriorsBitEqualToNaive(t *testing.T) {
	rng := linalg.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		k, d := 1+rng.Intn(8), 1+rng.Intn(12)
		m := &Model{Weights: make([]float64, k), Means: rng.GaussianMatrix(k, d), Vars: linalg.NewMatrix(k, d)}
		for c := 0; c < k; c++ {
			m.Weights[c] = rng.Float64()
			for j := 0; j < d; j++ {
				m.Vars.Set(c, j, 0.05+rng.Float64())
			}
		}
		m.Weights[rng.Intn(k)] = 0       // a dead component
		m.Vars.Set(rng.Intn(k), 0, 1e-6) // GMM.Fit's variance floor
		for i := 0; i < 10; i++ {
			x := rng.GaussianVector(d)
			got, want := m.Posteriors(x), naivePosteriors(m, x)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("trial %d component %d: %v, naive formula gives %v", trial, c, got[c], want[c])
				}
			}
		}
	}
}

// TestPosteriorsIntoOverwrites: PosteriorsInto gives Posteriors' bits in
// the vector it is handed, whatever that vector held before.
func TestPosteriorsIntoOverwrites(t *testing.T) {
	rng := linalg.NewRNG(12)
	m := &Model{Weights: []float64{0.2, 0, 0.5, 0.3}, Means: rng.GaussianMatrix(4, 5), Vars: linalg.NewMatrix(4, 5)}
	for i := range m.Vars.Data {
		m.Vars.Data[i] = 0.05 + rng.Float64()
	}
	buf := []float64{math.NaN(), math.Inf(1), -7, 3}
	for i := 0; i < 10; i++ {
		x := rng.GaussianVector(5)
		want := m.Posteriors(x)
		got := m.PosteriorsInto(buf, x)
		if &got[0] != &buf[0] {
			t.Fatal("PosteriorsInto did not write into the vector it was handed")
		}
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("descriptor %d component %d: %v, Posteriors gives %v", i, c, got[c], want[c])
			}
		}
	}
}
