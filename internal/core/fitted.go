package core

import (
	"context"
	"fmt"

	"keystoneml/internal/engine"
)

// Fitted is a trained pipeline: every estimator node resolved to its
// fitted model. Applying it never consults the training cache.
//
// A Fitted value is immutable after NewFitted returns: the evaluation
// plan is precomputed once at construction and every entry point works
// off read-only state plus per-call scratch, so one Fitted may be shared
// by any number of concurrent callers (the serving surface depends on
// this).
type Fitted struct {
	g      *Graph
	models map[int]TransformOp
	ctx    *engine.Context

	// plan is the persisted form of the pipeline: the reachable
	// non-estimator nodes in dependency order, one step per node, with
	// dep slots and models resolved up front. StepRecords writes it.
	plan    []fittedStep
	planOut int

	// steps is the run form every entry point but Apply evaluates: the
	// plan with each fused chain collapsed into one step (see fuse.go),
	// so the per-record hot path is a flat loop over closures with no
	// graph walk, no memo map, and no Collection/partition machinery.
	steps  []fittedStep
	outIdx int

	// blocks marks a run form TransformBatch can run a block at a time:
	// every step is the source, a gather or a BlockOp (see block.go).
	blocks bool
}

// fittedStep is one node of the precompiled plan. deps index earlier
// steps (the scratch slots their outputs land in).
type fittedStep struct {
	kind  NodeKind
	deps  []int
	apply func(in any) any // set for transform and apply-model steps
	op    TransformOp      // the operator behind apply; nil on a fused step
	name  string
	block BlockOp   // op's block form, nil when it has none
	home  blockHome // where the block path puts this step's rows
}

// NewFitted assembles a fitted pipeline from a graph and its trained
// models, precompiling its plan and, from that, its run form: fused
// chains, then the dense block form. models may be missing entries for
// estimators that were never fit; evaluating a path through such a node
// panics, matching the lazy behaviour of Apply.
func NewFitted(g *Graph, models map[int]TransformOp, ctx *engine.Context) *Fitted {
	f := &Fitted{g: g, models: models, ctx: ctx}
	slot := make(map[int]int)
	// Walk only apply-time edges (an apply-model step consumes its data
	// dependency; the estimator subgraph — including the labels source —
	// is never evaluated), matching Apply's reachability exactly.
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if idx, ok := slot[n.ID]; ok {
			return idx
		}
		st := fittedStep{kind: n.Kind, name: n.OpName()}
		switch n.Kind {
		case KindSource, KindLabels:
			// No inputs. A labels step panics at evaluation time if a
			// pipeline ever consumes labels on an apply-time path, the
			// same error Apply raises lazily.
		case KindTransform:
			st.deps = []int{walk(n.Deps[0])}
			st.apply = n.Transform.Apply
			st.op = n.Transform
		case KindGather:
			st.deps = make([]int, len(n.Deps))
			for i, d := range n.Deps {
				st.deps[i] = walk(d)
			}
		case KindApplyModel:
			if len(n.Chain) > 0 {
				panic(fmt.Sprintf("core: node #%d applies a fused chain; a fitted pipeline is built from the logical graph, not the fit graph", n.ID))
			}
			st.deps = []int{walk(n.Deps[1])}
			if model, ok := models[n.Deps[0].ID]; ok {
				st.apply = model.Apply
				st.op = model
			} else {
				estID := n.Deps[0].ID
				st.apply = func(any) any {
					panic(fmt.Sprintf("core: missing fitted model for estimator node #%d", estID))
				}
			}
		default:
			panic(fmt.Sprintf("core: unexpected node kind %v at apply time", n.Kind))
		}
		idx := len(f.plan)
		slot[n.ID] = idx
		f.plan = append(f.plan, st)
		return idx
	}
	f.planOut = walk(g.Sink)
	f.compileRun()
	f.compileBlocks()
	return f
}

// Apply runs the transformer chain over new data. Estimator fits are
// replaced by their trained models; within one Apply call node outputs are
// memoized (test-time execution has no iteration, so plain memoization is
// both correct and optimal). Apply is the batch oracle the single-record
// path is tested against.
func (f *Fitted) Apply(data *engine.Collection) *engine.Collection {
	return f.applyWith(f.ctx, data)
}

func (f *Fitted) applyWith(ctx *engine.Context, data *engine.Collection) *engine.Collection {
	memo := make(map[int]*engine.Collection)
	var eval func(n *Node) *engine.Collection
	eval = func(n *Node) *engine.Collection {
		if c, ok := memo[n.ID]; ok {
			return c
		}
		var out *engine.Collection
		switch n.Kind {
		case KindSource:
			out = data
		case KindLabels:
			panic("core: fitted pipeline must not read labels at apply time")
		case KindTransform:
			out = ctx.Map(eval(n.Deps[0]), n.Transform.Apply)
		case KindGather:
			out = eval(n.Deps[0])
			for _, d := range n.Deps[1:] {
				out = ctx.Zip(out, eval(d), ConcatFeatures)
			}
		case KindApplyModel:
			model, ok := f.models[n.Deps[0].ID]
			if !ok {
				panic(fmt.Sprintf("core: missing fitted model for estimator node #%d", n.Deps[0].ID))
			}
			out = ctx.Map(eval(n.Deps[1]), model.Apply)
		default:
			panic(fmt.Sprintf("core: unexpected node kind %v at apply time", n.Kind))
		}
		memo[n.ID] = out
		return out
	}
	return eval(f.g.Sink)
}

// TransformOne runs a single record through the fitted pipeline on the
// precompiled hot path: one scratch slice, no Collection wrapping, no
// goroutines. It is safe for any number of concurrent callers.
func (f *Fitted) TransformOne(record any) any {
	vals := make([]any, len(f.steps))
	for i := range f.steps {
		st := &f.steps[i]
		switch st.kind {
		case KindSource:
			vals[i] = record
		case KindTransform, KindApplyModel:
			vals[i] = st.apply(vals[st.deps[0]])
		case KindGather:
			out := vals[st.deps[0]]
			for _, d := range st.deps[1:] {
				out = ConcatFeatures(out, vals[d])
			}
			vals[i] = out
		case KindLabels:
			panic("core: fitted pipeline must not read labels at apply time")
		}
	}
	return vals[f.outIdx]
}

// batchParallelMin is the batch size above which TransformBatch fans out
// across the engine context's partition workers instead of looping on the
// caller's goroutine; below it goroutine dispatch costs more than it buys.
const batchParallelMin = 64

// TransformBatch runs a batch of records through the fitted pipeline.
//
// A dense pipeline — every operator a BlockOp, every record a []float64
// of one length — runs a block at a time: one kernel call per operator
// over up to blockRecords records, large batches split across the
// engine context's workers. Any other pipeline or batch (a record of
// the wrong type or length included) runs record by record on the hot
// path, fanned out across the workers above batchParallelMin records,
// so bad input fails exactly as TransformOne does. Outputs are
// bit-identical to TransformOne on every path. TransformBatch polls ctx
// between blocks or records and returns its error, with no partial
// output, if the batch is abandoned mid-way.
func (f *Fitted) TransformBatch(ctx context.Context, records []any) (out []any, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if l, ok := f.layoutFor(records); ok {
		return f.transformBlocks(ctx, l, records)
	}
	if len(records) >= batchParallelMin && f.ctx.Parallelism > 1 {
		defer func() {
			if r := recover(); r != nil {
				if c, ok := r.(*engine.Canceled); ok {
					out, err = nil, c.Err
					return
				}
				panic(r)
			}
		}()
		ec := f.ctx.WithCancellation(ctx)
		return ec.Map(engine.FromSlice(records, f.ctx.Parallelism), f.TransformOne).Collect(), nil
	}
	out = make([]any, len(records))
	for i, rec := range records {
		if i%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[i] = f.TransformOne(rec)
	}
	return out, nil
}
