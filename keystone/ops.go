package keystone

import (
	"keystoneml/internal/image"
	"keystoneml/internal/solvers"
	"keystoneml/internal/speech"
	"keystoneml/internal/text"
)

// Image is the raw image record type consumed by the vision pipelines.
type Image = image.Image

// --- Text operators (the paper's Figure 2 chain) ---

// Trim strips surrounding whitespace from a document.
func Trim() Op[string, string] { return wrapOp[string, string](text.Trim()) }

// LowerCase folds a document to lower case.
func LowerCase() Op[string, string] { return wrapOp[string, string](text.LowerCase()) }

// Tokenizer splits a document into word tokens.
func Tokenizer() Op[string, []string] { return wrapOp[string, []string](text.Tokenizer()) }

// NGrams expands a token stream into all n-grams for n in [lo, hi].
func NGrams(lo, hi int) Op[[]string, []string] {
	return wrapOp[[]string, []string](text.NGrams(lo, hi))
}

// TermFrequency maps a token stream to binary term frequencies, the
// weighting the paper's Amazon pipeline uses.
func TermFrequency() Op[[]string, map[string]float64] {
	return wrapOp[[]string, map[string]float64](text.TermFrequency())
}

// CommonSparseFeatures learns the numFeatures most frequent terms and
// encodes documents as sparse vectors over that vocabulary.
func CommonSparseFeatures(numFeatures int) Estimator[map[string]float64, any] {
	return wrapEst[map[string]float64, any](&text.CommonSparseFeatures{NumFeatures: numFeatures}, false)
}

// --- Solvers ---

// LogisticRegression is the supervised multinomial logistic solver
// (physical implementation chosen by the optimizer: L-BFGS or minibatch
// SGD). Output is one score per class.
func LogisticRegression(iterations int) Estimator[any, []float64] {
	return wrapEst[any, []float64](&solvers.LogisticRegression{Iterations: iterations}, true)
}

// LinearSolver is the supervised least-squares solver over dense feature
// vectors; the optimizer picks among exact (QR) and iterative (L-BFGS,
// SGD, block coordinate) implementations by cost.
func LinearSolver(iterations int) Estimator[[]float64, []float64] {
	return wrapEst[[]float64, []float64](&solvers.LinearSolver{Iterations: iterations, Lambda: 1e-4}, true)
}

// --- Kernel approximation ---

// RandomFeatures maps dense vectors through random cosine features
// approximating an RBF kernel of bandwidth gamma (Rahimi-Recht), the
// featurization of the paper's TIMIT pipeline.
func RandomFeatures(inputDim, numFeatures int, gamma float64, seed uint64) Op[[]float64, []float64] {
	return wrapOp[[]float64, []float64](speech.NewRandomFeatures(inputDim, numFeatures, gamma, seed))
}
