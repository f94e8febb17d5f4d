// Package gmm implements a diagonal-covariance Gaussian mixture model
// fitted with expectation-maximization, the estimator behind the Fisher
// vector encoding used by the paper's image classification pipelines
// (Table 4: ImageNet and VOC).
package gmm

import (
	"fmt"
	"math"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// Model is a fitted diagonal-covariance Gaussian mixture with K
// components over d-dimensional descriptors. Its parameters must not
// change once Posteriors has been called: the first call tabulates their
// logarithms.
type Model struct {
	Weights []float64      // K mixing weights, sum to 1
	Means   *linalg.Matrix // K x d
	Vars    *linalg.Matrix // K x d diagonal covariances

	// The logarithms Posteriors needs depend on the model alone, so they
	// are taken once per model, not once per descriptor; sync.Once keeps
	// that safe for a decoded model serving concurrent requests.
	logsOnce sync.Once
	logW     []float64 // K: log(Weights[c] + 1e-300)
	logNorm  []float64 // K x d row-major: log(2π·Vars[c][j])
}

func (m *Model) tabulateLogs() {
	d := m.Dim()
	m.logW = make([]float64, m.K())
	m.logNorm = make([]float64, m.K()*d)
	for c, w := range m.Weights {
		m.logW[c] = math.Log(w + 1e-300)
		for j, v := range m.Vars.Row(c) {
			m.logNorm[c*d+j] = math.Log(2 * math.Pi * v)
		}
	}
}

// K returns the component count.
func (m *Model) K() int { return len(m.Weights) }

// Dim returns the descriptor dimensionality.
func (m *Model) Dim() int { return m.Means.Cols }

// Posteriors computes the responsibilities gamma_k(x) for one descriptor.
func (m *Model) Posteriors(x []float64) []float64 {
	return m.PosteriorsInto(make([]float64, m.K()), x)
}

// PosteriorsInto is Posteriors writing into logp, which has length K, and
// returning it: a caller posterior-weighting many descriptors reuses one
// vector.
func (m *Model) PosteriorsInto(logp, x []float64) []float64 {
	m.logsOnce.Do(m.tabulateLogs)
	k := m.K()
	dim := m.Dim()
	maxLog := math.Inf(-1)
	for c := 0; c < k; c++ {
		lp := m.logW[c]
		mu := m.Means.Row(c)
		va := m.Vars.Row(c)
		ln := m.logNorm[c*dim : (c+1)*dim]
		for j, xj := range x {
			d := xj - mu[j]
			lp -= 0.5 * (d*d/va[j] + ln[j])
		}
		logp[c] = lp
		if lp > maxLog {
			maxLog = lp
		}
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

// GMM is the EM estimator producing a *Model wrapped in a transformer
// that annotates nothing by itself; pipelines use the model through the
// fisher package. As a TransformOp the fitted result maps a descriptor to
// its posterior vector (soft cluster assignment).
type GMM struct {
	K     int
	Iters int // EM iterations; default 10
	Seed  uint64
}

// Name implements core.EstimatorOp.
func (g *GMM) Name() string { return "gmm.em" }

// Weight implements core.Iterative: one pass over the descriptors per EM
// iteration.
func (g *GMM) Weight() int { return g.iters() }

func (g *GMM) iters() int {
	if g.Iters > 0 {
		return g.Iters
	}
	return 10
}

// Fit implements core.EstimatorOp. Records must be []float64 descriptors.
func (g *GMM) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	first := data()
	n := first.Count()
	if n == 0 {
		panic("gmm: empty input")
	}
	d := len(first.Take(1)[0].([]float64))
	k := g.K
	if k <= 0 {
		k = 16
	}
	if k > n {
		k = n
	}
	model := initModel(first, k, d, g.Seed)

	for it := 0; it < g.iters(); it++ {
		c := data() // one EM pass = one fetch
		type suff struct {
			w   []float64
			mu  *linalg.Matrix
			s2  *linalg.Matrix
			gam []float64 // the E-step's scratch: one descriptor's posteriors
		}
		res := ctx.Aggregate(c,
			func() any {
				return &suff{w: make([]float64, k), mu: linalg.NewMatrix(k, d), s2: linalg.NewMatrix(k, d), gam: make([]float64, k)}
			},
			func(acc, item any) any {
				s := acc.(*suff)
				x := item.([]float64)
				gam := model.PosteriorsInto(s.gam, x)
				for ci, gc := range gam {
					if gc < 1e-12 {
						continue
					}
					s.w[ci] += gc
					muRow := s.mu.Row(ci)
					s2Row := s.s2.Row(ci)
					for j, xj := range x {
						muRow[j] += gc * xj
						s2Row[j] += gc * xj * xj
					}
				}
				return s
			},
			func(a, b any) any {
				x, y := a.(*suff), b.(*suff)
				linalg.AxpyInPlace(1, y.w, x.w)
				x.mu.Add(y.mu)
				x.s2.Add(y.s2)
				return x
			},
		).(*suff)
		// M step.
		next := &Model{Weights: make([]float64, k), Means: linalg.NewMatrix(k, d), Vars: linalg.NewMatrix(k, d)}
		for ci := 0; ci < k; ci++ {
			nk := res.w[ci]
			if nk < 1e-10 {
				// Dead component: keep previous parameters.
				next.Weights[ci] = model.Weights[ci]
				next.Means.SetRow(ci, model.Means.Row(ci))
				next.Vars.SetRow(ci, model.Vars.Row(ci))
				continue
			}
			next.Weights[ci] = nk / float64(n)
			for j := 0; j < d; j++ {
				mu := res.mu.At(ci, j) / nk
				v := res.s2.At(ci, j)/nk - mu*mu
				if v < 1e-6 {
					v = 1e-6 // variance floor
				}
				next.Means.Set(ci, j, mu)
				next.Vars.Set(ci, j, v)
			}
		}
		model = next
	}
	return &PosteriorTransform{Model: model}
}

// initModel seeds means with k-means++-style selection (each next center
// drawn proportional to squared distance from the chosen set), which
// spreads initial components across the data's modes, plus unit variances.
func initModel(c *engine.Collection, k, d int, seed uint64) *Model {
	rng := linalg.NewRNG(seed + 4242)
	items := c.Collect()
	n := len(items)
	m := &Model{Weights: make([]float64, k), Means: linalg.NewMatrix(k, d), Vars: linalg.NewMatrix(k, d)}
	chosen := make([][]float64, 0, k)
	chosen = append(chosen, items[rng.Intn(n)].([]float64))
	dist := make([]float64, n)
	for len(chosen) < k {
		var total float64
		last := chosen[len(chosen)-1]
		for i, it := range items {
			x := it.([]float64)
			var d2 float64
			for j, xj := range x {
				diff := xj - last[j]
				d2 += diff * diff
			}
			if len(chosen) == 1 || d2 < dist[i] {
				dist[i] = d2
			}
			total += dist[i]
		}
		if total <= 0 {
			chosen = append(chosen, items[rng.Intn(n)].([]float64))
			continue
		}
		target := rng.Float64() * total
		pick := n - 1
		var acc float64
		for i, d2 := range dist {
			acc += d2
			if acc >= target {
				pick = i
				break
			}
		}
		chosen = append(chosen, items[pick].([]float64))
	}
	for ci := 0; ci < k; ci++ {
		m.Weights[ci] = 1 / float64(k)
		m.Means.SetRow(ci, chosen[ci])
		for j := 0; j < d; j++ {
			m.Vars.Set(ci, j, 1)
		}
	}
	return m
}

// PosteriorTransform is the fitted GMM as a transformer: descriptor ->
// posterior responsibility vector. It also carries the full model for
// consumers (Fisher vector encoding) that need means and variances.
type PosteriorTransform struct {
	Model *Model
}

// Name implements core.TransformOp.
func (p *PosteriorTransform) Name() string { return "model.gmm" }

// Apply implements core.TransformOp.
func (p *PosteriorTransform) Apply(in any) any {
	x, ok := in.([]float64)
	if !ok {
		panic(fmt.Sprintf("gmm: cannot score %T", in))
	}
	return p.Model.Posteriors(x)
}
