// Package keystone is the public face of KeystoneML-Go: a type-safe,
// chainable pipeline builder, a context-aware Fit entry point with
// functional options, and an immutable, concurrency-safe fitted-pipeline
// artifact with a single-record serving hot path.
//
// It is the only package consumers import — the operator library, the
// whole-pipeline optimizer (operator selection, common-subexpression
// elimination, automatic materialization), the dataflow engine, and the
// parallel DAG scheduler all sit behind it under internal/.
//
// Building mirrors the paper's Figure 2 API:
//
//	pipe := keystone.Then(
//	    keystone.Then(keystone.Input[string](), keystone.Tokenizer()),
//	    keystone.TermFrequency())
//	features := keystone.ThenEstimator(pipe, keystone.CommonSparseFeatures(1000))
//	full := keystone.ThenEstimator(features, keystone.LogisticRegression(25))
//	fitted, err := full.Fit(ctx, docs, keystone.OneHot(truth, 2))
//	score, err := fitted.Transform(ctx, "a held-out document")
//
// Go methods cannot introduce new type parameters, so the type-changing
// chain steps are package-level generics (keystone.Then, ThenEstimator,
// Gather) exactly as in the paper's pipe.andThen(next); the method forms
// Pipeline.Then / Pipeline.ThenEstimator exist for the type-preserving
// (O -> O) case. Pipelines are immutable values: chaining returns new
// handles sharing the underlying DAG structurally, and Fit optimizes a
// private clone, so one Pipeline may be fit many times (and concurrently)
// with different data and options.
package keystone

import (
	"fmt"

	"keystoneml/internal/core"
)

// Pipeline is an unfitted pipeline from I records to O records: a typed
// handle onto a shared operator DAG. The zero value is not usable; start
// from Input.
type Pipeline[I, O any] struct {
	g   *core.Graph
	out *core.Node
}

// Input starts a pipeline of I records: the identity pipeline I -> I.
func Input[I any]() *Pipeline[I, I] {
	g := core.NewGraph()
	return &Pipeline[I, I]{g: g, out: g.Source}
}

// Op is a typed transformer from A to B: a deterministic, side-effect-free
// per-record function. Operators compose only when record types line up at
// compile time.
type Op[A, B any] struct {
	raw core.TransformOp
}

// NewOp builds a custom operator from a named function.
func NewOp[A, B any](name string, fn func(A) B) Op[A, B] {
	return Op[A, B]{raw: core.TypedTransform(name, fn)}
}

// wrapOp adapts an internal typed operator; the caller asserts the types.
func wrapOp[A, B any](raw core.TransformOp) Op[A, B] { return Op[A, B]{raw: raw} }

// Estimator is a typed estimator fit on A records producing an A -> B
// transformer. Supervised estimators additionally consume the label
// collection bound at Fit time.
type Estimator[A, B any] struct {
	raw        core.EstimatorOp
	supervised bool
}

// wrapEst adapts an internal estimator; the caller asserts the types.
func wrapEst[A, B any](raw core.EstimatorOp, supervised bool) Estimator[A, B] {
	return Estimator[A, B]{raw: raw, supervised: supervised}
}

// Then chains a type-changing transformer onto a pipeline:
// (I -> A) andThen (A -> B).
func Then[I, A, B any](p *Pipeline[I, A], op Op[A, B]) *Pipeline[I, B] {
	n := p.g.AddTransform(op.raw, p.out)
	return &Pipeline[I, B]{g: p.g, out: n}
}

// Then chains a type-preserving transformer (O -> O); use the
// package-level keystone.Then for type-changing steps.
func (p *Pipeline[I, O]) Then(op Op[O, O]) *Pipeline[I, O] {
	return Then(p, op)
}

// ThenEstimator chains an estimator: at Fit time it is trained on this
// pipeline's output over the training data (plus labels if supervised)
// and the learned model is applied to that same output.
func ThenEstimator[I, A, B any](p *Pipeline[I, A], est Estimator[A, B]) *Pipeline[I, B] {
	e := p.g.AddEstimator(est.raw, p.out, est.supervised)
	a := p.g.AddApplyModel(e, p.out)
	return &Pipeline[I, B]{g: p.g, out: a}
}

// ThenEstimator chains a type-preserving estimator (O -> O); use the
// package-level keystone.ThenEstimator for type-changing steps.
func (p *Pipeline[I, O]) ThenEstimator(est Estimator[O, O]) *Pipeline[I, O] {
	return ThenEstimator(p, est)
}

// Gather concatenates the []float64 outputs of several branches of the
// same pipeline element-wise, mirroring the paper's Pipeline.gather. All
// branches must originate from the same Input.
func Gather[I any](branches ...*Pipeline[I, []float64]) *Pipeline[I, []float64] {
	if len(branches) == 0 {
		panic("keystone: Gather requires at least one branch")
	}
	g := branches[0].g
	nodes := make([]*core.Node, len(branches))
	for i, b := range branches {
		if b.g != g {
			panic(fmt.Sprintf("keystone: Gather branch %d belongs to a different pipeline graph", i))
		}
		nodes[i] = b.out
	}
	n := g.AddGather(nodes)
	return &Pipeline[I, []float64]{g: g, out: n}
}

// String renders the pipeline DAG, one operator per line.
func (p *Pipeline[I, O]) String() string { return p.g.String() }
