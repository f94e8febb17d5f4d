package core

import "keystoneml/internal/engine"

// Dataset is a placement's handle on one node output. Only the placement
// that issued a handle looks inside it; to the walker it is a value to
// pass on, cache, and release.
type Dataset any

// Placement is where a fit's partitions live and its record-wise
// operators run. The executor walks the DAG the same way whatever the
// placement; every node-local operation goes through it. The local
// placement — a handle is an *engine.Collection, an operation a call on
// the engine context — is the default; keystone/dist supplies one whose
// handles name datasets resident on worker processes.
//
// Ownership: a handle returned by Apply or Zip belongs to the walker
// until the cache manager admits it, after which it stays live to the
// end of the run. The walker calls Release exactly once on every handle
// the cache refused, after the last operation that reads it, and never on
// an admitted handle or on the source; Close then drops whatever is
// still live. Release and Close are best-effort and return nothing: a
// fit whose model is already built must not fail on cleanup.
//
// The sequential oracle is the only walker that honours this contract (a
// parallel pass keeps its own results until the pass ends), and a
// placement need not be safe for concurrent use, so
// Executor.SetPlacement pins the walk to the oracle; only the local
// placement, which needs neither, also serves parallel passes.
// Estimators fit in the calling process: Fetch is how their input gets
// there.
type Placement interface {
	// Source places the bound training data.
	Source(data *engine.Collection) (Dataset, error)
	// Apply maps op over in, partition by partition.
	Apply(in Dataset, op TransformOp) (Dataset, error)
	// Zip joins a and b record by record with ConcatFeatures.
	Zip(a, b Dataset) (Dataset, error)
	// Fetch returns d's partitions, in order, in this process.
	Fetch(d Dataset) (*engine.Collection, error)
	// Size estimates d's bytes for cache admission; 0 when unknown.
	Size(d Dataset) int64
	// Release drops a handle the walker owned and is done with.
	Release(d Dataset)
	// Close ends the run: every handle still live is dropped.
	Close()
}

// localPlacement runs operators on the executor's own engine context
// (read at call time: RunContext rebinds it for cancellation). Handles
// are the collections themselves, so nothing is ever released.
type localPlacement struct{ e *Executor }

func (l localPlacement) Source(data *engine.Collection) (Dataset, error) { return data, nil }

func (l localPlacement) Apply(in Dataset, op TransformOp) (Dataset, error) {
	return MapOp(l.e.ctx, in.(*engine.Collection), op), nil
}

func (l localPlacement) Zip(a, b Dataset) (Dataset, error) {
	return l.e.ctx.Zip(a.(*engine.Collection), b.(*engine.Collection), ConcatFeatures), nil
}

func (l localPlacement) Fetch(d Dataset) (*engine.Collection, error) {
	return d.(*engine.Collection), nil
}

func (l localPlacement) Size(d Dataset) int64 {
	return SizeOfSlice(d.(*engine.Collection).Collect())
}

func (l localPlacement) Release(Dataset) {}

func (l localPlacement) Close() {}
