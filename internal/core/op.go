// Package core implements the KeystoneML pipeline abstraction: Transformer
// and Estimator operators chained into a DAG with andThen/gather (Figures
// 3-4 of the paper) and a depth-first executor whose caching behaviour
// reproduces the recompute-vs-materialize semantics the whole-pipeline
// optimizer reasons about (Section 4.3).
package core

import (
	"fmt"

	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
)

// TransformOp is the untyped physical form of a Transformer: a
// deterministic, side-effect-free function applied to individual records.
// Determinism and purity are what legalize the optimizer's reordering and
// materialization decisions, so implementations must not carry hidden
// mutable state across Apply calls.
type TransformOp interface {
	// Name identifies the operator in plans, profiles and reports.
	Name() string
	// Apply transforms one record.
	Apply(in any) any
}

// Fetch re-materializes an operator's input collection. Each call walks the
// pipeline DAG honouring the cache: if the input is materialized it is a
// cheap lookup, otherwise the upstream operators recompute. Iterative
// estimators call their fetch once per pass over the data, which is exactly
// why materialization matters for them (recomputation costs multiply
// across iterations).
type Fetch func() *engine.Collection

// EstimatorOp is the untyped physical form of an Estimator: fit on a
// distributed dataset (and optional labels), produce a TransformOp. labels
// is nil for unsupervised estimators.
type EstimatorOp interface {
	// Name identifies the operator.
	Name() string
	// Fit learns a transformer. Implementations that iterate over their
	// input must call data once per pass rather than holding the first
	// materialization, so that execution cost reflects the caching plan.
	Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp
}

// Optimizable marks a logical operator that has multiple physical
// implementations. The operator-level optimizer evaluates each option's
// cost model against sampled input statistics and the cluster descriptor
// and substitutes the winner into the plan.
type Optimizable interface {
	// Options lists candidate physical implementations. Option.Operator
	// must be a TransformOp or EstimatorOp matching the logical node kind.
	Options() []cost.Option
}

// Iterative marks an operator that makes multiple passes over its input.
// Weight scales the recomputation cost of everything upstream in the
// T(v)/C(v) analysis.
type Iterative interface {
	// Weight returns the expected number of passes over the input.
	Weight() int
}

// funcTransform adapts a plain function to TransformOp.
type funcTransform struct {
	name string
	fn   func(any) any
}

func (f *funcTransform) Name() string     { return f.name }
func (f *funcTransform) Apply(in any) any { return f.fn(in) }
func (f *funcTransform) String() string   { return f.name }

// NewTransform wraps fn as a named TransformOp.
func NewTransform(name string, fn func(any) any) TransformOp {
	return &funcTransform{name: name, fn: fn}
}

// TypedTransform wraps a typed function as a TransformOp, asserting the
// record type at runtime. keystone's typed builder guarantees the
// assertion can only fail if an operator lies about its types.
func TypedTransform[A, B any](name string, fn func(A) B) TransformOp {
	return NewTransform(name, func(in any) any {
		a, ok := in.(A)
		if !ok {
			panic(fmt.Sprintf("core: operator %q expected %T, got %T", name, *new(A), in))
		}
		return fn(a)
	})
}

// IdentityOp passes records through unchanged; useful as a pipeline input
// anchor.
func IdentityOp() TransformOp {
	return NewTransform("identity", func(in any) any { return in })
}
