package keystone

import "keystoneml/internal/core"

// This file is the narrow seam between the public facade and
// engine-level callers: keystone/dist, which fits through FitPlaced with
// a placement on worker processes and reuses everything else (graph
// building, optimizer, executor, artifact codec) from this package, and
// harnesses that stage a fit by hand. Ordinary consumers never need
// these: Fit/Transform/Save/Load are the supported surface.

// Site says where a fit's training partitions live. The zero Site is
// this process.
type Site struct {
	// Placement is where the executor runs the pipeline's record-wise
	// operators; nil means this process's engine.
	Placement core.Placement
	// Model prices Placement for the planner: how many processes hold
	// the partitions, what a stage launch costs and what a byte fetched
	// to this process costs. Read only when Placement is set. Estimators
	// fit in this process wherever the partitions live, so the operator
	// cost models see the same modeled cluster at every site.
	Model core.DistModel
}

// EngineGraph exposes the pipeline's underlying DAG and output node for
// engine-level executors such as keystone/dist. The returned graph is
// the live graph (not a clone); callers must Clone before mutating.
func (p *Pipeline[I, O]) EngineGraph() (*core.Graph, *core.Node) { return p.g, p.out }

// NewEngineFitted wraps an engine-level fitted pipeline as a public
// Fitted[I, O], the inverse of what Fit does after executing its plan.
// The caller asserts the type parameters match the graph's record
// types.
func NewEngineFitted[I, O any](inner *core.Fitted, info FitInfo) *Fitted[I, O] {
	return &Fitted[I, O]{inner: inner, info: info}
}

// Engine exposes the engine-level fitted pipeline backing f — the object
// keystone.Encode serializes — for engine-level callers pairing public
// and dist execution paths.
func (f *Fitted[I, O]) Engine() *core.Fitted { return f.inner }
