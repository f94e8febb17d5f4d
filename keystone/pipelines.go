package keystone

import (
	"keystoneml/internal/conv"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/fisher"
	"keystoneml/internal/gmm"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
	"keystoneml/internal/pca"
)

// Prebuilt pipelines: the five end-to-end applications of the paper's
// evaluation (Table 4), assembled from the operator library. Each builder
// returns an ordinary unfitted Pipeline that can be extended with Then or
// fit directly.
//
//	Amazon   — Trim → LowerCase → Tokenize → NGrams(1,2) → TermFrequency →
//	           CommonSparseFeatures → LogisticRegression
//	TIMIT    — two gathered RandomFeatures blocks → LinearSolver
//	VOC      — Grayscale → SIFT → sample → PCA → GMM → FisherVector →
//	           Normalize → LinearSolver (Figure 5's DAG)
//	ImageNet — VOC plus a gathered LCS color branch
//	CIFAR-10 — learned whitened filters → Convolver → Pooler →
//	           SymmetricRectifier → LinearSolver

// TextConfig parameterizes the Amazon review-classification pipeline.
type TextConfig struct {
	NumFeatures int // vocabulary size (paper: 100k)
	Iterations  int // solver pass budget
}

// TextPipeline builds the Figure 2 text classification pipeline:
// Trim → LowerCase → Tokenize → NGrams(1,2) → TermFrequency →
// CommonSparseFeatures → LogisticRegression.
func TextPipeline(cfg TextConfig) *Pipeline[string, []float64] {
	if cfg.NumFeatures <= 0 {
		cfg.NumFeatures = 10000
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	docs := Input[string]().Then(Trim()).Then(LowerCase())
	tf := Then(Then(Then(docs, Tokenizer()), NGrams(1, 2)), TermFrequency())
	return ThenEstimator(ThenEstimator(tf, CommonSparseFeatures(cfg.NumFeatures)),
		LogisticRegression(cfg.Iterations))
}

// SpeechConfig parameterizes the TIMIT kernel-SVM pipeline.
type SpeechConfig struct {
	InputDim    int     // raw feature dimensionality (paper: 440)
	NumFeatures int     // total random cosine features across both blocks
	Gamma       float64 // RBF bandwidth; 0 picks a dimension-scaled default
	Seed        uint64
	Iterations  int
}

// SpeechPipeline builds the TIMIT pipeline: two gathered random-feature
// blocks followed by the cost-model-selected linear solver.
func SpeechPipeline(cfg SpeechConfig) *Pipeline[[]float64, []float64] {
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
	in := Input[[]float64]()
	half := cfg.NumFeatures / 2
	gathered := Gather(
		Then(in, RandomFeatures(cfg.InputDim, half, cfg.Gamma, cfg.Seed+1)),
		Then(in, RandomFeatures(cfg.InputDim, cfg.NumFeatures-half, cfg.Gamma, cfg.Seed+2)))
	return ThenEstimator(gathered, LinearSolver(cfg.Iterations))
}

// VisionConfig parameterizes the VOC / ImageNet Fisher-vector pipelines.
type VisionConfig struct {
	PCADims       int // descriptor dims after PCA (paper: 64/80)
	GMMComponents int // Fisher vocabulary size (paper: 16/256)
	SampleDescs   int // descriptors sampled per image for PCA/GMM fitting
	Seed          uint64
	Iterations    int
	WithLCS       bool // add the color-statistics branch (ImageNet variant)
}

// VisionPipeline builds the Figure 5 image classification DAG: SIFT
// descriptors, column-sampled PCA, GMM, Fisher vector encoding,
// normalization, linear solver — plus a gathered LCS color branch when
// WithLCS is set.
func VisionPipeline(cfg VisionConfig) *Pipeline[*Image, []float64] {
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
	in := Input[*Image]()
	out := fisherBranch(Then(in.Then(Grayscale()), SIFT(SIFTParams{})), cfg, cfg.Seed)
	if cfg.WithLCS {
		out = Gather(out, fisherBranch(Then(in, LCS(6, 8)), cfg, cfg.Seed+100))
	}
	return ThenEstimator(out, LinearSolver(cfg.Iterations))
}

// fisherBranch is the shared descriptor -> PCA -> GMM -> FV -> normalize
// sub-DAG of Figure 5.
func fisherBranch(descs *Pipeline[*Image, [][]float64], cfg VisionConfig, seed uint64) *Pipeline[*Image, []float64] {
	sampled := descs.Then(SampleDescriptors(cfg.SampleDescs, seed))
	reduced := sampled.ThenEstimator(wrapEst[[][]float64, [][]float64](
		&image.DescriptorPCAEst{Fitter: &pca.PCA{K: cfg.PCADims, Seed: seed}}, false))
	encoded := ThenEstimator(reduced, wrapEst[[][]float64, []float64](
		&fisherEst{k: cfg.GMMComponents, seed: seed}, false))
	return encoded.Then(NewOp("features.normalize", normalizeFeatures))
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
	post := (&gmm.GMM{K: f.k, Iters: 10, Seed: f.seed}).Fit(ctx, image.FlattenedFetch(data), nil).(*gmm.PosteriorTransform)
	return fisher.NewEncoder(post.Model)
}

// normalizeFeatures is the vision pipelines' final step: an L2-normalized
// copy of the Fisher vector. Stateless, so an artifact rebuilds it by name.
func normalizeFeatures(x []float64) []float64 {
	out := linalg.CloneVec(x)
	linalg.Normalize(out)
	return out
}

func init() { RegisterStatelessOp("features.normalize", normalizeFeatures) }

// CifarConfig parameterizes the CIFAR-10 convolutional pipeline.
type CifarConfig struct {
	PatchSize  int // convolution filter size (paper: 6)
	NumFilters int // filter bank size
	PoolSize   int
	Alpha      float64 // rectifier threshold
	Seed       uint64
	Iterations int
}

// CifarPipeline builds the CIFAR-10 pipeline: learned whitened patch
// filters, convolution, symmetric rectification, pooling, linear solver.
func CifarPipeline(cfg CifarConfig) *Pipeline[*Image, []float64] {
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
	convolved := Input[*Image]().ThenEstimator(wrapEst[*Image, *Image](&convEst{cfg: cfg}, false))
	vec := Then(convolved.Then(Pooling(cfg.PoolSize)), ImageToVector())
	return ThenEstimator(vec.Then(SymmetricRectify(cfg.Alpha)), LinearSolver(cfg.Iterations))
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
	channels := coll.Take(1)[0].(*Image).Channels
	bank := conv.NewFilterBank(ps, channels, c.cfg.NumFilters)
	for f := 0; f < c.cfg.NumFilters; f++ {
		patch := patches[rng.Intn(len(patches))].([]float64)
		white := zca.Apply(patch).([]float64)
		linalg.Normalize(white)
		copy(bank.Weights[f], white)
	}
	return &conv.Convolver{Bank: bank}
}
