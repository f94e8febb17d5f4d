package keystone

import (
	"keystoneml/internal/image"
)

// Image and vision primitives, exported as typed operators so consumers
// can assemble custom vision DAGs instead of being limited to the
// prebuilt VisionPipeline/CifarPipeline. They compose with the generic
// chain steps like every other operator:
//
//	p := keystone.Input[*keystone.Image]()
//	gray := keystone.Then(p, keystone.Grayscale())
//	pooled := keystone.Then(gray, keystone.Pooling(2))
//	vec := keystone.Then(pooled, keystone.ImageToVector())
//	white := keystone.ThenEstimator(vec, keystone.ZCAWhitening(0.1))
//	full := keystone.ThenEstimator(white, keystone.LinearSolver(20))

// SIFTParams configures the dense SIFT-style descriptor extractor.
// Zero values select the classic defaults (4-pixel cells, stride 8,
// 8 orientation bins — the 128-dim descriptor).
type SIFTParams struct {
	CellSize int // spatial bin edge in pixels (default 4)
	Stride   int // sampling step between descriptor centers (default 8)
	Bins     int // orientation bins (default 8)
}

// Grayscale converts a multi-channel image to one luminance channel
// (identity on single-channel input).
func Grayscale() Op[*Image, *Image] {
	return wrapOp[*Image, *Image](image.GrayscaleOp())
}

// SIFT extracts dense SIFT-style descriptors on a grid: local
// gradient-orientation histograms over 4x4 cells, L2 normalized — the
// descriptor source of the paper's Figure 5 vision DAG. Each pixel's
// orientation and each cell's histogram is computed once and shared by
// the descriptors that overlap it; a pixel whose orientation is NaN (a
// non-finite neighbourhood) adds nothing.
func SIFT(p SIFTParams) Op[*Image, [][]float64] {
	return wrapOp[*Image, [][]float64](&image.SIFT{Params: image.SIFTParams(p)})
}

// LCS extracts local color statistic descriptors: per-patch per-channel
// mean and standard deviation on a dense grid — the color branch of the
// ImageNet pipeline. Non-positive sizes select the defaults (6, 8).
func LCS(patchSize, stride int) Op[*Image, [][]float64] {
	return wrapOp[*Image, [][]float64](&image.LCS{PatchSize: patchSize, Stride: stride})
}

// Pooling sums activations over a size x size spatial grid, shrinking the
// image by that factor per axis with the channel count preserved.
func Pooling(size int) Op[*Image, *Image] {
	return wrapOp[*Image, *Image](&image.Pooler{PoolSize: size})
}

// ZCAWhitening is the unsupervised ZCA whitening estimator: it fits
// W = U (Λ + εI)^(-1/2) Uᵀ over the training vectors and transforms
// records by centering and rotating. epsilon <= 0 selects 1e-2.
func ZCAWhitening(epsilon float64) Estimator[[]float64, []float64] {
	return wrapEst[[]float64, []float64](&image.ZCAWhitener{Epsilon: epsilon}, false)
}

// PatchExtract extracts all patch x patch x C patches at the given stride
// as flat vectors (the CIFAR pipeline's patch source). Non-positive
// arguments select patch 6 with stride = patch.
func PatchExtract(patch, stride int) Op[*Image, [][]float64] {
	return wrapOp[*Image, [][]float64](&image.PatchExtractor{PatchSize: patch, Stride: stride})
}

// SymmetricRectify maps x to [max(0, x-alpha), max(0, -x-alpha)]
// concatenated — the two-sided ReLU of the CIFAR pipeline.
func SymmetricRectify(alpha float64) Op[[]float64, []float64] {
	return wrapOp[[]float64, []float64](image.SymmetricRectifier(alpha))
}

// ImageToVector flattens an image into a feature vector (row-major per
// channel plane).
func ImageToVector() Op[*Image, []float64] {
	return wrapOp[*Image, []float64](image.ImageToVector())
}

// SampleDescriptors deterministically subsamples a descriptor set to at
// most n entries — the Column Sampler feeding PCA/GMM fits in Figure 5.
func SampleDescriptors(n int, seed uint64) Op[[][]float64, [][]float64] {
	return wrapOp[[][]float64, [][]float64](&image.ColumnSampler{N: n, Seed: seed})
}

// FlattenDescriptors concatenates a descriptor set into one flat vector,
// bridging descriptor-set operators to flat-vector estimators.
func FlattenDescriptors() Op[[][]float64, []float64] {
	return wrapOp[[][]float64, []float64](image.Flatten())
}
