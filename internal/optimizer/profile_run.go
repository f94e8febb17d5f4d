package optimizer

import (
	"context"
	"time"

	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
)

// sample is one dataset over the profiling sample S2, held as the nested
// subsample S1 (index 0) and the remainder S2∖S1 (index 1).
type sample [2]*engine.Collection

// nestedSample draws S2 = c.Sample(s2) and splits it. S1 is an even stride
// through S2, not a prefix, so it keeps S2's class mix whatever order the
// records arrive in. Data and labels of equal length split identically.
func nestedSample(c *engine.Collection, s1, s2 int) sample {
	if c == nil {
		return sample{}
	}
	recs := c.Sample(s2).Collect()
	s1 = min(s1, len(recs))
	stride := len(recs) / max(s1, 1)
	head, tail := make([]any, 0, s1), make([]any, 0, len(recs)-s1)
	for i, r := range recs {
		if len(head) < s1 && i%stride == 0 {
			head = append(head, r)
		} else {
			tail = append(tail, r)
		}
	}
	return sample{engine.FromSlice(head, c.NumPartitions()), engine.FromSlice(tail, c.NumPartitions())}
}

// all is S2 as one collection: S1's partitions, then the remainder's.
func (p sample) all() *engine.Collection {
	if p[0] == nil {
		return nil
	}
	parts := make([][]any, 0, p[0].NumPartitions()+p[1].NumPartitions())
	for _, c := range p {
		for i := 0; i < c.NumPartitions(); i++ {
			parts = append(parts, c.Partition(i))
		}
	}
	return engine.FromPartitions(parts)
}

// handle is a node's output over the nested sample, with its time over S1
// and over all of S2 and its S2 statistics, which Size computes as the
// cache admits the handle: every handle an operator reads has them.
type handle struct {
	parts sample
	times [2]time.Duration
	stats *cost.DataStats
}

// profiler is the core.Placement the pipeline profile (Section 4.1) runs
// core.Executor through, over the nested sample S1 ⊂ S2 instead of the
// data. A record-wise step runs over S1 and then the remainder, touching
// each S2 record once: warm-up cost lands in the intercept of (|S1|, t₁),
// (|S2|, t₂) and the slope comes from warm records. An operator is chosen
// just before it runs, from its input's statistics.
type profiler struct {
	ctx    *engine.Context
	cfg    Config
	fullN  int
	source *handle
	labels sample
	chosen map[int]string
	last   *handle // the latest Fetch's: the fitting estimator's input
}

// selectable is an optimizable transform; Apply chooses its
// implementation and substitutes it into node, the planned graph's.
type selectable struct {
	core.TransformOp
	node *core.Node
}

// profiledFit is an estimator as the profile runs it: chosen like a
// selectable, fitted on S1 and on S2 (fit cost is not additive over
// records), and handing the S2 model downstream.
type profiledFit struct {
	core.EstimatorOp
	p     *profiler
	node  *core.Node
	times [2]time.Duration
}

// profile runs a clone of g, its operators wrapped, through the profile
// placement with a cache that keeps every node output, and reads the
// profile back. It returns the operators it chose (and substituted into
// g) by node ID; a cancellation of ctx comes back as an error.
func profile(ctx context.Context, g *core.Graph, data, labels *engine.Collection, cfg Config) (*Profile, map[int]string, error) {
	fullN := data.Count()
	s1, s2 := cfg.samples(fullN)
	p := &profiler{ctx: engine.NewContext(cfg.Parallelism).WithCancellation(ctx), cfg: cfg, fullN: fullN,
		source: &handle{parts: nestedSample(data, s1, s2)}, labels: nestedSample(labels, s1, s2), chosen: map[int]string{}}
	run := g.Clone()
	for _, n := range run.Nodes {
		if n.Estimator != nil {
			n.Estimator = &profiledFit{EstimatorOp: n.Estimator, p: p, node: g.Nodes[n.ID]}
		} else if _, ok := n.Transform.(core.Optimizable); ok && cfg.Level >= LevelFull {
			n.Transform = &selectable{n.Transform, g.Nodes[n.ID]}
		}
	}
	cache := engine.NewCacheManager(0, engine.NewLRUPolicy()) // unlimited: evicts nothing
	if _, _, _, err := core.NewExecutor(run, p.ctx, cache, data, p.labels.all()).SetPlacement(p).RunContext(ctx); err != nil {
		return nil, nil, err
	}
	n1, n2 := p.source.parts[0].Count(), p.source.parts[0].Count()+p.source.parts[1].Count()
	prof := &Profile{Nodes: map[int]*NodeProfile{}, SampleSizes: [2]int{n1, n2}, FullN: fullN}
	charged := map[*handle]bool{} // a one-branch gather's handle is its branch's
	for _, n := range g.Topological() {
		np := &NodeProfile{Name: n.OpName(), Kind: n.Kind, Weight: n.Weight()}
		var t [2]time.Duration
		if f, ok := run.Nodes[n.ID].Estimator.(*profiledFit); ok {
			t = f.times
		} else if v, size, ok := cache.Peek(core.CacheKeys([]int{n.ID})[0]); ok {
			np.SizeBytes = size
			if h, ok := v.(*handle); ok && !charged[h] {
				t, charged[h] = h.times, true
			}
		}
		np.TimeSec = extrapolate(n1, t[0].Seconds(), n2, t[1].Seconds(), fullN)
		prof.Nodes[n.ID] = np
	}
	return prof, p.chosen, nil
}

// timed runs a record-wise step over S1 and then over the remainder.
func timed(step func(part int) *engine.Collection) *handle {
	h := &handle{}
	start := time.Now()
	h.parts[0] = step(0)
	h.times[0] = time.Since(start)
	h.parts[1] = step(1)
	h.times[1] = time.Since(start)
	return h
}

// choose returns the cost-model winner among op's physical options under
// its input statistics st; nil when selection is off or op offers none.
func (p *profiler) choose(op any, st cost.DataStats) any {
	if opt, ok := op.(core.Optimizable); ok && p.cfg.Level >= LevelFull {
		if options := opt.Options(); len(options) > 0 {
			return options[cost.Choose(options, st, p.cfg.Resources)].Operator
		}
	}
	return nil
}

// Source places the nested sample of the data, drawn up front.
func (p *profiler) Source(*engine.Collection) (core.Dataset, error) { return p.source, nil }

// Apply maps op over both parts of in, first choosing a selectable
// transform's implementation from in's statistics.
func (p *profiler) Apply(in core.Dataset, op core.TransformOp) (core.Dataset, error) {
	h := in.(*handle)
	if s, ok := op.(*selectable); ok {
		op = s.TransformOp
		if c, ok := p.choose(op, *h.stats).(core.TransformOp); ok {
			op, s.node.Transform, p.chosen[s.node.ID] = c, c, c.Name()
		}
	}
	return timed(func(i int) *engine.Collection { return core.MapOp(p.ctx, h.parts[i], op) }), nil
}

// Zip joins both parts of a and b. A k-branch gather is a fold of k−1
// Zips; an unsized a is the fold so far, whose time carries over.
func (p *profiler) Zip(a, b core.Dataset) (core.Dataset, error) {
	x, y := a.(*handle), b.(*handle)
	out := timed(func(i int) *engine.Collection { return p.ctx.Zip(x.parts[i], y.parts[i], core.ConcatFeatures) })
	if x.stats == nil {
		out.times[0] += x.times[0]
		out.times[1] += x.times[1]
	}
	return out, nil
}

// Fetch returns all of S2, keeping the handle for profiledFit.
func (p *profiler) Fetch(d core.Dataset) (*engine.Collection, error) {
	p.last = d.(*handle)
	return p.last.parts.all(), nil
}

// Size computes d's S2 statistics and returns their bytes, which the
// profile reads back from the cache; the labels are the bound collection,
// not a handle.
func (p *profiler) Size(d core.Dataset) int64 {
	h, ok := d.(*handle)
	if !ok {
		return statsOf(p.fullN, p.cfg.NumClasses, d.(*engine.Collection)).Bytes
	}
	if h.stats == nil {
		st := statsOf(p.fullN, p.cfg.NumClasses, h.parts[:]...)
		h.stats = &st
	}
	return h.stats.Bytes
}

// Release and Close do nothing: the cache keeps every handle.
func (p *profiler) Release(core.Dataset) {}
func (p *profiler) Close()               {}

// Fit implements core.EstimatorOp: the S2 fit reads its input through the
// executor's fetches, the S1 fit from the handle. When S2 is all the data,
// its fit time is the full-scale time, so there is no S1 fit.
func (f *profiledFit) Fit(ctx *engine.Context, data, labels core.Fetch) core.TransformOp {
	n2, in := data().Count(), f.p.last
	if c, ok := f.p.choose(f.EstimatorOp, *in.stats).(core.EstimatorOp); ok {
		f.EstimatorOp, f.node.Estimator, f.p.chosen[f.node.ID] = c, c, c.Name()
	}
	var model core.TransformOp
	fit := func(i int, data, labels core.Fetch) {
		start := time.Now()
		model = f.EstimatorOp.Fit(ctx, data, labels)
		f.times[i] = time.Since(start)
	}
	if n1 := in.parts[0].Count(); n1 > 0 && n1 < n2 && n2 < f.p.fullN {
		var s1Labels core.Fetch
		if labels != nil {
			s1Labels = func() *engine.Collection { return f.p.labels[0] }
		}
		fit(0, func() *engine.Collection { return in.parts[0] }, s1Labels)
	}
	fit(1, data, labels)
	return model
}
