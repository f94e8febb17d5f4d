// Package pipelines assembles the five end-to-end applications of the
// paper's evaluation (Table 4) from the operator library, scaled to run on
// synthetic workloads:
//
//	Amazon   — Trim → LowerCase → Tokenize → NGrams(1,2) → TermFrequency →
//	           CommonSparseFeatures → LinearSolver (text classification)
//	TIMIT    — RandomFeatures (cosine kernel approx) → LinearSolver
//	VOC      — Grayscale → SIFT → sample → PCA → GMM → FisherVector →
//	           Normalize → LinearSolver (Figure 5's DAG)
//	ImageNet — same skeleton as VOC at larger scale with LCS color branch
//	CIFAR-10 — PatchExtractor → ZCAWhitener → Convolver →
//	           SymmetricRectifier → Pooler → LinearSolver
//
// Each builder returns the typed pipeline plus the configuration used, so
// the experiment harness can rebuild identical pipelines under different
// optimizer levels.
package pipelines

import (
	"keystoneml/internal/conv"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/fisher"
	"keystoneml/internal/gmm"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
	"keystoneml/internal/pca"
	"keystoneml/internal/solvers"
	"keystoneml/internal/speech"
	"keystoneml/internal/text"
)

// TextConfig parameterizes the Amazon pipeline.
type TextConfig struct {
	NumFeatures int // vocabulary size (paper: 100k)
	Iterations  int // solver pass budget
}

// Text builds the Figure 2 text classification pipeline.
func Text(cfg TextConfig) *core.Pipeline[string, []float64] {
	if cfg.NumFeatures <= 0 {
		cfg.NumFeatures = 10000
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	p := core.Input[string]()
	p1 := core.AndThen(p, text.Trim())
	p2 := core.AndThen(p1, text.LowerCase())
	p3 := core.AndThen(p2, text.Tokenizer())
	p4 := core.AndThen(p3, text.NGrams(1, 2))
	p5 := core.AndThen(p4, text.TermFrequency())
	p6 := core.AndThenEstimator(p5, text.NewCommonSparseFeaturesEst(cfg.NumFeatures))
	return core.AndThenLabeledEstimator(p6,
		core.NewLabeledEst[any, []float64](&solvers.LogisticRegression{Iterations: cfg.Iterations}))
}

// SpeechConfig parameterizes the TIMIT pipeline.
type SpeechConfig struct {
	InputDim    int // raw feature dim (paper: 440)
	NumFeatures int // random cosine features (paper: 528k)
	Gamma       float64
	Seed        uint64
	Iterations  int
	MemLimit    float64 // exact-solver feasibility bound
}

// Speech builds the TIMIT kernel-SVM pipeline: random cosine features
// followed by the optimizable linear solver. The paper gathers multiple
// random feature blocks; we reproduce that with two gathered blocks.
func Speech(cfg SpeechConfig) *core.Pipeline[[]float64, []float64] {
	if cfg.NumFeatures <= 0 {
		cfg.NumFeatures = 512
	}
	if cfg.Gamma <= 0 {
		// RBF bandwidth scaled so gamma*E||x-y||^2 is O(1) for unit-variance
		// inputs of this dimensionality.
		cfg.Gamma = 1.0 / (16.0 * float64(cfg.InputDim))
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 30
	}
	p := core.Input[[]float64]()
	half := cfg.NumFeatures / 2
	b1 := core.AndThen(p, speech.NewRandomFeaturesOp(cfg.InputDim, half, cfg.Gamma, cfg.Seed+1))
	b2 := core.AndThen(p, speech.NewRandomFeaturesOp(cfg.InputDim, cfg.NumFeatures-half, cfg.Gamma, cfg.Seed+2))
	gathered := core.Gather(b1, b2)
	return core.AndThenLabeledEstimator(gathered,
		solvers.NewLinearSolverEst(cfg.Iterations, 1e-4, cfg.MemLimit))
}

// VisionConfig parameterizes the VOC / ImageNet Fisher vector pipelines.
type VisionConfig struct {
	PCADims       int // descriptor dims after PCA (paper: 64/80)
	GMMComponents int // Fisher vocabulary size (paper: 16/256)
	SampleDescs   int // descriptors sampled per image for PCA/GMM fitting
	Seed          uint64
	Iterations    int
	WithLCS       bool // add the color-statistics branch (ImageNet)
}

// Vision builds the Figure 5 image classification DAG: SIFT descriptors,
// column-sampled PCA, GMM, Fisher vector encoding, normalization, linear
// solver. With WithLCS a second descriptor branch is gathered in, as in
// the ImageNet pipeline.
func Vision(cfg VisionConfig) *core.Pipeline[*image.Image, []float64] {
	if cfg.PCADims <= 0 {
		cfg.PCADims = 16
	}
	if cfg.GMMComponents <= 0 {
		cfg.GMMComponents = 8
	}
	if cfg.SampleDescs <= 0 {
		cfg.SampleDescs = 40
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	p := core.Input[*image.Image]()
	gray := core.AndThen(p, image.GrayscaleOp())
	sift := core.AndThen(gray, image.NewSIFTOp(image.SIFTParams{}))
	branch := fisherBranch(sift, cfg, cfg.Seed)
	out := branch
	if cfg.WithLCS {
		lcs := core.AndThen(p, image.NewLCSOp(6, 8))
		colorBranch := fisherBranch(lcs, cfg, cfg.Seed+100)
		out = core.Gather(branch, colorBranch)
	}
	return core.AndThenLabeledEstimator(out,
		solvers.NewLinearSolverEst(cfg.Iterations, 1e-4, 0))
}

// fisherBranch is the shared descriptor -> PCA -> GMM -> FV -> normalize
// sub-DAG of Figure 5.
func fisherBranch(descs *core.Pipeline[*image.Image, [][]float64], cfg VisionConfig, seed uint64) *core.Pipeline[*image.Image, []float64] {
	sampled := core.AndThen(descs, image.NewColumnSamplerOp(cfg.SampleDescs, seed))
	reduced := core.AndThenEstimator(sampled, core.NewEst[[][]float64, [][]float64](
		&image.DescriptorPCAEst{Fitter: &pca.PCA{K: cfg.PCADims, Seed: seed}}))
	encoded := core.AndThenEstimator(reduced, core.NewEst[[][]float64, []float64](
		&fisherEst{k: cfg.GMMComponents, seed: seed}))
	return core.AndThen(encoded, normalizeOp())
}

// fisherEst fits a GMM on pooled descriptors and produces the Fisher
// vector encoder.
type fisherEst struct {
	k    int
	seed uint64
}

// Name implements core.EstimatorOp.
func (f *fisherEst) Name() string { return "fisher.est" }

// Weight implements core.Iterative (EM passes over the descriptors).
func (f *fisherEst) Weight() int { return 10 }

// Fit implements core.EstimatorOp.
func (f *fisherEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	flatten := func() *engine.Collection {
		c := data()
		var items []any
		for _, rec := range c.Collect() {
			for _, d := range rec.([][]float64) {
				items = append(items, d)
			}
		}
		return engine.FromSlice(items, c.NumPartitions())
	}
	post := (&gmm.GMM{K: f.k, Iters: 10, Seed: f.seed}).Fit(ctx, flatten, nil).(*gmm.PosteriorTransform)
	return fisher.NewEncoder(post.Model)
}

func normalizeOp() core.Op[[]float64, []float64] {
	return core.FuncOp("features.normalize", func(x []float64) []float64 {
		out := linalg.CloneVec(x)
		linalg.Normalize(out)
		return out
	})
}

// CifarConfig parameterizes the CIFAR-10 convolutional pipeline.
type CifarConfig struct {
	PatchSize  int // convolution filter size (paper: 6)
	NumFilters int // filter bank size (paper: 1024+; scaled)
	PoolSize   int
	Alpha      float64 // rectifier threshold
	Seed       uint64
	Iterations int
}

// Cifar builds the CIFAR-10 pipeline: ZCA-whitened patch filters are
// learned, convolved over the image, rectified two-sided, pooled and fed
// to the linear solver — the Coates & Ng featurization of Table 4.
func Cifar(cfg CifarConfig) *core.Pipeline[*image.Image, []float64] {
	if cfg.PatchSize <= 0 {
		cfg.PatchSize = 5
	}
	if cfg.NumFilters <= 0 {
		cfg.NumFilters = 16
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 7
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.25
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	p := core.Input[*image.Image]()
	conv := core.AndThenEstimator(p, core.NewEst[*image.Image, *image.Image](&convEst{cfg: cfg}))
	pooled := core.AndThen(conv, image.NewPoolerOp(cfg.PoolSize))
	vec := core.AndThen(pooled, image.ImageToVector())
	rect := core.AndThen(vec, image.SymmetricRectifier(cfg.Alpha))
	return core.AndThenLabeledEstimator(rect,
		solvers.NewLinearSolverEst(cfg.Iterations, 1e-4, 0))
}

// convEst learns a whitened patch filter bank (KMeans-free variant: ZCA
// whitening of sampled patches, filters = whitened random patches) and
// produces a convolution transformer over it.
type convEst struct {
	cfg CifarConfig
}

// Name implements core.EstimatorOp.
func (c *convEst) Name() string { return "cifar.convfilters" }

// Fit implements core.EstimatorOp.
func (c *convEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	coll := data()
	rng := linalg.NewRNG(c.cfg.Seed + 55)
	ps := c.cfg.PatchSize
	extractor := &image.PatchExtractor{PatchSize: ps, Stride: ps}
	var patches []any
	for _, rec := range coll.Collect() {
		for _, patch := range extractor.Apply(rec).([][]float64) {
			patches = append(patches, patch)
		}
	}
	patchColl := engine.FromSlice(patches, coll.NumPartitions())
	zca := (&image.ZCAWhitener{Epsilon: 0.1}).Fit(ctx, func() *engine.Collection { return patchColl }, nil)
	// Filters: whitened random patches, normalized.
	channels := firstImageChannels(coll)
	bank := conv.NewFilterBank(ps, channels, c.cfg.NumFilters)
	for f := 0; f < c.cfg.NumFilters; f++ {
		patch := patches[rng.Intn(len(patches))].([]float64)
		white := zca.Apply(patch).([]float64)
		linalg.Normalize(white)
		copy(bank.Weights[f], white)
	}
	return &conv.Convolver{Bank: bank}
}

func firstImageChannels(c *engine.Collection) int {
	return c.Take(1)[0].(*image.Image).Channels
}
