package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/keystone"
)

// FitOptions configures a distributed fit. The zero value is usable:
// one partition per worker-slot heuristic, full optimization, loopback
// resource descriptor.
type FitOptions struct {
	// Partitions is the number of global partitions the training data is
	// split into (0 = 2x the worker count, so every worker holds work
	// even after round-robin placement).
	Partitions int
	// Parallelism bounds the coordinator's engine context, used for
	// profiling, estimator fits and the fitted pipeline's batch
	// transforms (0 = NumCPU, as keystone.WithWorkers). The DAG walk over
	// the workers is sequential whatever it says.
	Parallelism int
	// NumClasses feeds k into the solver cost models (0 = derived from
	// the label width).
	NumClasses int
	// CacheBudgetBytes caps the distributed materialization set chosen
	// by the planner; zero means unlimited.
	CacheBudgetBytes int64
	// Level selects the optimizer configuration (zero value = LevelFull).
	Level keystone.Level
	// Resources describes the cluster for the planner's placement terms
	// (stage-launch latency, coordinator network weight); nil uses
	// cluster.Loopback for the connected worker count.
	Resources *cluster.Resources
}

// Report summarizes one distributed fit: the cluster shape it ran over,
// the modeled makespan the materialization set was chosen under, and the
// wall-clock split between optimization and distributed training.
type Report struct {
	Workers    int
	Partitions int
	// OptimizeTime is sampling + profiling + planning on the
	// coordinator; TrainTime the distributed execution (dispatches,
	// shuffles, estimator fits).
	OptimizeTime time.Duration
	TrainTime    time.Duration
	// ModeledMakespan is the distributed-time simulation of the chosen
	// plan (seconds) — what the planner believed this fit would cost.
	ModeledMakespan float64
	// CacheSet lists the operators whose outputs stayed resident on the
	// workers between passes.
	CacheSet []string
	// Recoveries counts worker deaths the fit survived: each one
	// reassigned the dead worker's partitions and replayed their lineage
	// on the survivors. Zero on a clean run.
	Recoveries int
	// ReplayedPartitions counts (dataset, partition) pairs rebuilt by
	// lineage replay across all recoveries — the recomputed work that
	// would have aborted the fit before fault tolerance.
	ReplayedPartitions int
}

// Fit trains pipeline p data-parallel across the cluster's workers and
// returns a fitted pipeline bit-identical to what a single-process
// keystone Fit at the same optimizer level would produce: partitions
// keep their global indices through every remote op, estimator inputs
// are fetched back in exact global order, and the models themselves are
// fit on the coordinator with the same collection shapes the local
// executor would have built.
//
// The optimizer runs on the coordinator over the local copy of the data
// (sampling and profiling are cheap relative to training), but costs its
// materialization choices with the distributed makespan model — network
// transfer and stage-launch terms from opts.Resources — so what the
// workers cache is decided by off-box economics, not local ones.
//
// Fit survives worker failure. Every remote dispatch records lineage —
// the chain of (op kind, state) applications that produced each
// distributed dataset from the coordinator-held input partitions — and
// when a worker's per-call deadline expires or its connection tears past
// the redial budget, the coordinator declares it dead, reassigns its
// partitions round-robin over the survivors, and replays exactly the
// lost partitions' chains onto their new owners before retrying the
// interrupted op. Because every recorded op is deterministic and
// partition-local, the recovered fit is bit-identical to the no-failure
// run; the fit only aborts when no live workers remain. Report.Recoveries
// says how many deaths a fit absorbed.
func Fit[I, O any](ctx context.Context, cl *Cluster, p *keystone.Pipeline[I, O], records []I, labels [][]float64, opts FitOptions) (*keystone.Fitted[I, O], *Report, error) {
	if cl == nil || cl.Workers() == 0 {
		return nil, nil, fmt.Errorf("dist: Fit needs a connected cluster")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res := cluster.Loopback(cl.Workers())
	if opts.Resources != nil {
		res = *opts.Resources
	}
	run := &fitRun{ctx: ctx, cl: cl, lin: core.NewLineage(), dirty: make(map[int]bool), live: make(map[string]bool)}
	model := core.DistModel{Workers: cl.Workers(), StageLatencySec: res.StageLatencySec, NetSecPerByte: res.CoordWeight()}
	fitted, err := keystone.FitPlaced(ctx, p, records, labels, keystone.Site{Placement: run, Model: model},
		keystone.WithOptimizerLevel(opts.Level),
		keystone.WithWorkers(opts.Parallelism),
		keystone.WithPartitions(opts.Partitions),
		keystone.WithNumClasses(opts.NumClasses),
		keystone.WithCacheBudget(opts.CacheBudgetBytes))
	if err != nil {
		return nil, nil, err
	}
	info := fitted.Info()
	return fitted, &Report{
		Workers:            cl.Workers(),
		Partitions:         info.Partitions,
		OptimizeTime:       info.OptimizeTime,
		TrainTime:          info.TrainTime,
		ModeledMakespan:    info.ModeledTrainTime.Seconds(),
		CacheSet:           info.Cached,
		Recoveries:         run.recoveries,
		ReplayedPartitions: run.replayedParts,
	}, nil
}

// fitRun is the core.Placement of one distributed fit: every dataset the
// executor's walk produces lives on the workers under a name this run
// issued, and a handle is that name plus, once an estimator has fetched
// it, the coordinator's copy. Which datasets stay resident between
// passes is the walk's decision (what its pinned-set cache admits);
// everything else is released right after its last use and recomputed on
// the next demand — the recompute-on-miss semantics the cost model
// priced. It is single-caller, like the Cluster's recovery state.
type fitRun struct {
	ctx context.Context
	cl  *Cluster

	seq  int
	live map[string]bool // datasets resident on the workers, freed at Close

	// Fault-tolerance state: the recorded derivation of every dataset
	// this run created, the coordinator's copy of the root partitions
	// (reloaded on demand during replay), and the global partitions lost
	// to a death but not yet rebuilt on their new owners.
	lin           *core.Lineage
	data          *engine.Collection
	dirty         map[int]bool
	recoveries    int
	replayedParts int
}

// dataset is fitRun's handle: a dataset name on the workers. fetched
// memoises the coordinator's copy, so an iterative estimator refetches a
// dataset that stays resident for free, exactly as the cost model
// assumes; a temp's handle dies with its release.
type dataset struct {
	name    string
	fetched *engine.Collection
}

// create runs op to build a new dataset under a fresh name.
func (r *fitRun) create(op func(name string) error) (core.Dataset, error) {
	r.seq++
	name := fmt.Sprintf("d%d", r.seq)
	r.live[name] = true
	if err := op(name); err != nil {
		return nil, err
	}
	return &dataset{name: name}, nil
}

// handle resolves a dataset the executor passes back. The bound labels
// are the one dataset that is not this run's: they stay on the
// coordinator.
func handle(d core.Dataset) (*dataset, error) {
	ds, ok := d.(*dataset)
	if !ok {
		return nil, fmt.Errorf("dist: %T demanded as a remote dataset (labels stay on the coordinator)", d)
	}
	return ds, nil
}

// Source ships the training data and records it as the lineage root the
// whole fit replays from. Its handle is born fetched: the coordinator
// already holds the data.
func (r *fitRun) Source(data *engine.Collection) (core.Dataset, error) {
	r.data = data
	d, err := r.create(func(name string) error {
		r.lin.Root(name)
		return r.retrying(name, func() error { return r.cl.Load(name, data) })
	})
	if err != nil {
		return nil, fmt.Errorf("dist: load training data: %w", err)
	}
	d.(*dataset).fetched = data // an estimator over the source never fetches it back
	return d, nil
}

// Apply implements core.Placement.
func (r *fitRun) Apply(in core.Dataset, op core.TransformOp) (core.Dataset, error) {
	src, err := handle(in)
	if err != nil {
		return nil, err
	}
	return r.create(func(dst string) error { return r.applyOp(dst, src.name, op) })
}

// Zip implements core.Placement: the join is core.ConcatFeatures on the
// workers, so feature layouts match the local executor bit for bit.
func (r *fitRun) Zip(a, b core.Dataset) (core.Dataset, error) {
	left, err := handle(a)
	if err != nil {
		return nil, err
	}
	right, err := handle(b)
	if err != nil {
		return nil, err
	}
	return r.create(func(dst string) error { return r.zipOp(dst, left.name, right.name) })
}

// Fetch pulls d back in global partition order, once per handle.
func (r *fitRun) Fetch(d core.Dataset) (*engine.Collection, error) {
	ds, err := handle(d)
	if err != nil {
		return nil, err
	}
	if ds.fetched == nil {
		coll, err := r.fetchOp(ds.name)
		if err != nil {
			return nil, err
		}
		ds.fetched = coll
	}
	return ds.fetched, nil
}

// Size implements core.Placement. Remote sizes are not measured: the
// planner already fitted the pinned set to the cache budget from
// profiled sizes, and at run time the budget never binds.
func (r *fitRun) Size(core.Dataset) int64 { return 0 }

// Release frees a temp dataset after its last use. The lineage node is
// only marked dropped, not deleted: live descendants still replay
// through it.
func (r *fitRun) Release(d core.Dataset) {
	n := d.(*dataset).name
	delete(r.live, n)
	r.lin.Drop(n)
	r.cl.Free(n) //nolint:errcheck // best-effort: a failed free only leaks worker memory
}

// Close drops every dataset this run still holds on the workers: the
// source, what stayed resident, and whatever an aborted walk left.
func (r *fitRun) Close() {
	names := make([]string, 0, len(r.live))
	for n := range r.live {
		names = append(names, n)
	}
	r.cl.Free(names...) //nolint:errcheck // best-effort cleanup
}

// --- fault tolerance ---------------------------------------------------
//
// Every remote dispatch below records its lineage before touching the
// wire and runs inside retrying, which absorbs worker deaths: the dead
// worker's partitions are reassigned, their lineage replayed onto the
// new owners, and the interrupted op re-broadcast. Unscoped ops are
// idempotent (they replace their output wholesale per worker), so the
// retried op never needs partial-progress bookkeeping — only the other
// live datasets do, and those are exactly what the replay rebuilds.

// applyOp records and dispatches one operator application. The operator
// is encoded once; the same bytes serve the wire and the lineage record,
// so a replay re-runs bit-identically what the original dispatch ran.
func (r *fitRun) applyOp(dst, src string, op core.TransformOp) error {
	kind, state, err := core.EncodeOp(op)
	if err != nil {
		return fmt.Errorf("dist: operator %q not shippable: %w", op.Name(), err)
	}
	r.lin.Apply(dst, src, kind, state)
	return r.retrying(dst, func() error { return r.cl.ApplyEncoded(dst, src, kind, state) })
}

// zipOp records and dispatches one gather-join.
func (r *fitRun) zipOp(dst, a, b string) error {
	r.lin.Zip(dst, a, b)
	return r.retrying(dst, func() error { return r.cl.Zip(dst, a, b) })
}

// fetchOp pulls a dataset back to the coordinator under the same
// recovery loop as the dispatches: a worker dying mid-fetch triggers
// replay of the lost partitions (the fetched dataset included) before
// the fetch is retried.
func (r *fitRun) fetchOp(name string) (*engine.Collection, error) {
	var coll *engine.Collection
	err := r.retrying("", func() error {
		var err error
		coll, err = r.cl.Fetch(name)
		return err
	})
	return coll, err
}

// retrying runs one remote op under the recovery loop: before every
// attempt it drains newly detected worker deaths (reassigning and
// replaying their partitions), and a *WorkerFailure from the op itself
// buys another round. skip names the dataset the op produces — excluded
// from replay because the retried op recomputes it wholesale (nothing
// derives from it yet). Application-level errors return immediately.
func (r *fitRun) retrying(skip string, op func() error) error {
	attempts := r.cl.Workers() + 1
	var err error
	for a := 0; a < attempts; a++ {
		if err = checkCtx(r.ctx); err != nil {
			return err
		}
		if err = r.drainFailures(skip); err != nil {
			return err
		}
		if err = op(); err == nil {
			return nil
		}
		var wf *WorkerFailure
		if !errors.As(err, &wf) {
			return err
		}
	}
	return err
}

// drainFailures is the recovery procedure. For every worker declared
// dead since the last drain: reassign its partitions round-robin over
// the survivors and mark them dirty; then rebuild all dirty partitions
// of every live dataset (minus skip) by lineage replay. It loops because
// a survivor can die mid-replay — its partitions join the dirty set and
// the next round replays onto the shrunken cluster — and converges or
// runs out of workers within Workers+2 rounds.
func (r *fitRun) drainFailures(skip string) error {
	maxRounds := r.cl.Workers() + 2
	for round := 0; round < maxRounds; round++ {
		dead := r.cl.TakeFailed()
		if len(dead) == 0 && len(r.dirty) == 0 {
			return nil
		}
		for _, w := range dead {
			moved, err := r.cl.Reassign(w)
			if err != nil {
				return err
			}
			for _, parts := range moved {
				for _, p := range parts {
					r.dirty[p] = true
				}
			}
			r.recoveries++
		}
		if len(r.dirty) == 0 {
			continue
		}
		if err := r.replay(skip); err != nil {
			var wf *WorkerFailure
			if errors.As(err, &wf) {
				continue // death mid-replay: next round reassigns and replays again
			}
			return err
		}
		r.dirty = make(map[int]bool)
	}
	return fmt.Errorf("dist: recovery did not converge after %d rounds", maxRounds)
}

// replay rebuilds the dirty partitions of every live dataset except skip
// on their (new) owners, walking the recorded lineage root-to-leaf:
// roots reload from the coordinator's copy of the training partitions,
// everything else re-applies the exact encoded ops that built it. All
// scoped ops merge, so survivors' partitions are never touched and a
// half-finished replay can simply run again. Dropped intermediates are
// recreated as scratch and freed afterwards.
func (r *fitRun) replay(skip string) error {
	var targets []string
	for _, name := range r.lin.Live() {
		if name != skip {
			targets = append(targets, name)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	order, err := r.lin.ReplayOrder(targets)
	if err != nil {
		return err
	}
	owners := r.cl.Owners()
	byOwner := make(map[int][]int)
	for p := range r.dirty {
		if p >= len(owners) {
			return fmt.Errorf("dist: dirty partition %d outside owners table (%d partitions)", p, len(owners))
		}
		byOwner[owners[p]] = append(byOwner[owners[p]], p)
	}
	workers := make([]int, 0, len(byOwner))
	for w := range byOwner {
		sort.Ints(byOwner[w])
		workers = append(workers, w)
	}
	sort.Ints(workers)

	var scratch []string
	defer func() {
		if len(scratch) > 0 {
			r.cl.Free(scratch...) //nolint:errcheck // best-effort scratch cleanup
		}
	}()
	for _, node := range order {
		if !node.Live {
			scratch = append(scratch, node.Name)
		}
		for _, w := range workers {
			parts := byOwner[w]
			var err error
			switch node.Kind {
			case core.LineageRoot:
				payload := make([]partition, len(parts))
				for i, p := range parts {
					payload[i] = partition{Index: p, Records: r.data.Partition(p)}
				}
				err = r.cl.LoadParts(w, node.Name, payload)
			case core.LineageApply:
				err = r.cl.ApplyParts(w, node.Name, node.Parents[0], node.OpKind, node.OpState, parts)
			case core.LineageZip:
				err = r.cl.ZipParts(w, node.Name, node.Parents[0], node.Parents[1], parts)
			default:
				err = fmt.Errorf("dist: cannot replay %s lineage node %q", node.Kind, node.Name)
			}
			if err != nil {
				return err
			}
			r.replayedParts += len(parts)
		}
	}
	return nil
}
