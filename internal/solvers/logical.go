package solvers

import (
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
)

// Cost-model constants. Table 1 omits constants "for readability but they
// are necessary in practice" — these are the practical constants: they
// encode that L-BFGS needs ~3 FLOPs per nonzero per class per pass
// (score, residual, scatter), that the block solver does BLAS-3 work, and
// the iteration counts each method needs to converge on least squares.
const (
	lbfgsFlopsPerNNZ = 3.0 // score + residual + gradient scatter per nnz per class
	blockFlopsFactor = 2.0 // block Gram + cross term + incremental residual update
	exactFlopsFactor = 2.0 // Householder QR multiply-adds
	// localQREfficiency penalizes the driver-side Householder QR: its
	// column-strided reflector updates run far from peak on row-major
	// storage, unlike the partition-local Gram/TSQR path.
	localQREfficiency = 4.0
	bytesPerFloat     = 8.0
	defaultLBFGSIters = 50
	defaultSweeps     = 3
	defaultBlockSize  = 2048
)

// localQRCost models LocalQR per Table 1: compute O(nd(d+k)) on the
// driver (no division by w), network O(n(d+k)) to collect the data,
// memory O(d(n+k)). Infeasible when the densified dataset exceeds the
// driver's memory.
type localQRCost struct {
	memLimitBytes float64
}

func (c localQRCost) Name() string { return "solver.exact.local-qr" }

func (c localQRCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	denseBytes := n * d * bytesPerFloat
	if c.memLimitBytes > 0 && denseBytes > c.memLimitBytes {
		return cost.Profile{Flops: -1} // cannot fit on the driver
	}
	return cost.Profile{
		Flops:   localQREfficiency * exactFlopsFactor * n * d * (d + k),
		Bytes:   denseBytes,
		Network: n * (d + k) * bytesPerFloat,
		Stages:  1, // one collect
	}
}

// distQRCost models DistributedQR per Table 1: compute O(nd(d+k)/w),
// network O(d(d+k)) for the R-factor tree reduction, memory O(nd/w + d²).
// Sparse inputs must be densified partition by partition, so the flops do
// not shrink with sparsity; infeasible when a partition's densified slice
// plus the d² factor exceed node memory.
type distQRCost struct {
	memLimitBytes float64
}

func (c distQRCost) Name() string { return "solver.exact.dist-qr" }

func (c distQRCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	w := float64(max(workers, 1))
	perNode := n*d*bytesPerFloat/w + d*d*bytesPerFloat
	if c.memLimitBytes > 0 && perNode > c.memLimitBytes {
		return cost.Profile{Flops: -1}
	}
	return cost.Profile{
		Flops:   exactFlopsFactor * n * d * (d + k) / w,
		Bytes:   perNode,
		Network: d * (d + k) * bytesPerFloat,
		Stages:  1, // single tree-reduction pass
	}
}

// lbfgsCost models LBFGS per Table 1: compute O(i·n·s·k/w) where s is the
// average nonzeros per record (= d when dense), network O(i·d·k) for the
// gradient aggregation.
type lbfgsCost struct {
	iters int
}

func (c lbfgsCost) Name() string { return "solver.lbfgs" }

func (c lbfgsCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	w := float64(max(workers, 1))
	i := float64(c.iters)
	s := st.AvgNNZ()
	return cost.Profile{
		Flops:   i * lbfgsFlopsPerNNZ * n * s * k / w,
		Bytes:   n*s*bytesPerFloat/w + d*k*bytesPerFloat,
		Network: i * d * k * bytesPerFloat,
		Stages:  i, // one gradient aggregation per iteration
	}
}

// blockCost models BlockSolver per Table 1: compute O(i·n·d·(b+k)/w),
// network O(i·d·(b+k)), memory O(nb/w + dk). The solver densifies, so on
// sparse inputs the flops stay proportional to d, not s — the 26-260x
// slowdown of Figure 6's Amazon panel.
type blockCost struct {
	sweeps, blockSize int
}

func (c blockCost) Name() string { return "solver.block" }

func (c blockCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	w := float64(max(workers, 1))
	i := float64(c.sweeps)
	b := float64(min(c.blockSize, int(st.Dim)))
	return cost.Profile{
		Flops:   blockFlopsFactor * i * n * d * (b + k) / w,
		Bytes:   n*b*bytesPerFloat/w + d*k*bytesPerFloat,
		Network: i * d * (b + k) * bytesPerFloat,
		Stages:  i * (d/b + 1), // one aggregation per block per sweep
	}
}

// LinearSolver is the logical least-squares operator (the paper's
// LinearSolver Estimator). It is Optimizable: the operator-level
// optimizer evaluates the four Table 1 physical implementations against
// sampled input statistics and the cluster descriptor and swaps in the
// winner. When executed without optimization it defaults to L-BFGS (the
// one-size-fits-all strategy the unoptimized baselines use).
type LinearSolver struct {
	// Iterations bounds the gradient methods' pass count (default 50).
	Iterations int
	// Lambda is the ridge term shared by all implementations.
	Lambda float64
	// MemLimitBytes marks exact solvers infeasible beyond this footprint;
	// zero means unlimited.
	MemLimitBytes float64
}

// Name implements core.EstimatorOp.
func (s *LinearSolver) Name() string { return "solver.linear[logical]" }

// Weight implements core.Iterative, advertising the default
// implementation's pass count for materialization planning.
func (s *LinearSolver) Weight() int { return s.iters() }

func (s *LinearSolver) iters() int {
	if s.Iterations > 0 {
		return s.Iterations
	}
	return defaultLBFGSIters
}

// Fit implements core.EstimatorOp by delegating to the default physical
// implementation (L-BFGS).
func (s *LinearSolver) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return (&LBFGS{Iterations: s.iters(), Lambda: s.Lambda}).Fit(ctx, data, labels)
}

// Options implements core.Optimizable, listing the Table 1 physical
// solvers with their cost models.
func (s *LinearSolver) Options() []cost.Option {
	return []cost.Option{
		{
			Model:    localQRCost{memLimitBytes: s.MemLimitBytes},
			Operator: &LocalQR{Lambda: s.Lambda},
		},
		{
			Model:    distQRCost{memLimitBytes: s.MemLimitBytes},
			Operator: &DistributedQR{Lambda: s.Lambda},
		},
		{
			Model:    lbfgsCost{iters: s.iters()},
			Operator: &LBFGS{Iterations: s.iters(), Lambda: s.Lambda},
		},
		{
			Model:    blockCost{sweeps: defaultSweeps, blockSize: defaultBlockSize},
			Operator: &BlockSolver{Sweeps: defaultSweeps, BlockSize: defaultBlockSize, Lambda: s.Lambda},
		},
	}
}

// LogisticRegression is the logical multinomial logistic operator used by
// the text-classification pipeline. Physical implementations: L-BFGS on
// the logistic objective (default) or minibatch SGD.
type LogisticRegression struct {
	Iterations int
	Lambda     float64
}

// Name implements core.EstimatorOp.
func (s *LogisticRegression) Name() string { return "solver.logistic[logical]" }

// Weight implements core.Iterative.
func (s *LogisticRegression) Weight() int { return s.iters() }

func (s *LogisticRegression) iters() int {
	if s.Iterations > 0 {
		return s.Iterations
	}
	return defaultLBFGSIters
}

// Fit implements core.EstimatorOp.
func (s *LogisticRegression) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return (&LBFGS{Iterations: s.iters(), Lambda: s.Lambda, Objective: LogisticLoss}).Fit(ctx, data, labels)
}

// Options implements core.Optimizable.
func (s *LogisticRegression) Options() []cost.Option {
	return []cost.Option{
		{
			Model:    lbfgsCost{iters: s.iters()},
			Operator: &LBFGS{Iterations: s.iters(), Lambda: s.Lambda, Objective: LogisticLoss},
		},
		{
			Model:    sgdCost{epochs: 2 * s.iters()},
			Operator: &SGD{Epochs: 2 * s.iters(), Lambda: s.Lambda, Objective: LogisticLoss},
		},
	}
}

// sgdCost models minibatch SGD: the per-pass cost matches L-BFGS but
// convergence needs more passes, and every batch forces a model
// synchronization, so network grows with n/batch rather than iterations.
type sgdCost struct {
	epochs int
}

func (c sgdCost) Name() string { return "solver.sgd" }

func (c sgdCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n, d, k := float64(st.N), float64(st.Dim), float64(st.K)
	w := float64(max(workers, 1))
	i := float64(c.epochs)
	s := st.AvgNNZ()
	const batch = 128
	return cost.Profile{
		Flops:   i * lbfgsFlopsPerNNZ * n * s * k / w,
		Bytes:   n * s * bytesPerFloat / w,
		Network: i * (n / batch) * d * k * bytesPerFloat / w,
		Stages:  i * n / batch, // model sync per minibatch
	}
}
