package pca

import (
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
)

const bytesPerFloat = 8.0

// svdLocalCost: collect everything (network O(nd)), full SVD O(nd²) on
// one node. Infeasible when the dataset exceeds driver memory — the "x"
// entries for n=10⁶, d=4096 in Table 2.
type svdLocalCost struct{ memLimit float64 }

func (c svdLocalCost) Name() string { return "pca.svd.local" }

func (c svdLocalCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d := float64(st.N), float64(st.Dim)
	bytes := n * d * bytesPerFloat
	if c.memLimit > 0 && bytes > c.memLimit {
		return cost.Profile{Flops: -1}
	}
	return cost.Profile{Flops: 4 * n * d * d, Bytes: bytes, Network: bytes, Stages: 1}
}

// tsvdLocalCost: collect (network O(nd)), randomized TSVD O(ndk) per
// power iteration on one node.
type tsvdLocalCost struct {
	iters    int
	memLimit float64
}

func (c tsvdLocalCost) Name() string { return "pca.tsvd.local" }

func (c tsvdLocalCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	bytes := n * d * bytesPerFloat
	if c.memLimit > 0 && bytes > c.memLimit {
		return cost.Profile{Flops: -1}
	}
	i := float64(c.iters + 2)
	return cost.Profile{Flops: 4 * i * n * d * (k + 8), Bytes: bytes, Network: bytes, Stages: 1}
}

// svdDistCost: Gram aggregation O(nd²/w) compute, O(d²) network, plus the
// O(d³) driver eigendecomposition.
type svdDistCost struct{}

func (svdDistCost) Name() string { return "pca.svd.dist" }

func (svdDistCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d := float64(st.N), float64(st.Dim)
	w := float64(max(workers, 1))
	return cost.Profile{
		Flops:   2*n*d*d/w + 8*d*d*d,
		Bytes:   n * d * bytesPerFloat / w,
		Network: d * d * bytesPerFloat,
		Stages:  2, // aggregate + broadcast
	}
}

// tsvdDistCost: distributed randomized range finding, O(ndk/w) per power
// iteration compute and O(dk) network per iteration plus the n x k range
// factor shipped to the driver for the small QR.
type tsvdDistCost struct{ iters int }

func (tsvdDistCost) Name() string { return "pca.tsvd.dist" }

func (c tsvdDistCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	w := float64(max(workers, 1))
	i := float64(c.iters + 2)
	kk := k + 8
	return cost.Profile{
		Flops:   4*i*n*d*kk/w + 2*i*n*kk*kk,
		Bytes:   n * d * bytesPerFloat / w,
		Network: i * (d*kk + n*kk) * bytesPerFloat,
		Stages:  i + 1,
	}
}

// PCA is the logical PCA Estimator: Optimizable over the four Table 2
// physical implementations. The default (unoptimized) implementation is
// the local exact SVD.
type PCA struct {
	// K is the number of principal components to keep.
	K int
	// Iters is the power-iteration count for the approximate variants.
	Iters int
	// MemLimitBytes marks local variants infeasible beyond this dataset
	// size; zero means unlimited.
	MemLimitBytes float64
	// Seed drives the randomized variants.
	Seed uint64
}

// Name implements core.EstimatorOp.
func (p *PCA) Name() string { return "pca[logical]" }

// Fit implements core.EstimatorOp via the default local SVD.
func (p *PCA) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return (&LocalSVD{K: p.K}).Fit(ctx, data, labels)
}

// Options implements core.Optimizable.
func (p *PCA) Options() []cost.Option {
	iters := p.Iters
	if iters <= 0 {
		iters = 2
	}
	return []cost.Option{
		{Model: svdLocalCost{memLimit: p.MemLimitBytes}, Operator: &LocalSVD{K: p.K}},
		{Model: tsvdLocalCost{iters: iters, memLimit: p.MemLimitBytes}, Operator: &LocalTSVD{K: p.K, Iters: iters, Seed: p.Seed}},
		{Model: svdDistCost{}, Operator: &DistSVD{K: p.K}},
		{Model: tsvdDistCost{iters: iters}, Operator: &DistTSVD{K: p.K, Iters: iters, Seed: p.Seed}},
	}
}
