package optimizer

import (
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
	var parts [][]any
	for _, c := range p {
		for i := 0; i < c.NumPartitions(); i++ {
			parts = append(parts, c.Partition(i))
		}
	}
	return engine.FromPartitions(parts)
}

// sampleRun walks the pipeline DAG once over the nested sample S1 ⊂ S2,
// measuring each node's local time at both sizes and its output statistics
// on S2, and — when selection is enabled — choosing every Optimizable
// node's physical implementation from its input statistics *before*
// executing it, exactly the interleaved procedure of Section 4.1.
//
// A record-wise node (transform, gather, apply-model) touches each S2
// record once: the S1 part is timed, then the remainder, which gives the
// points (|S1|, t₁) and (|S2|, t₁+t₂) — so warm-up cost lands in the
// intercept and the slope comes from warm records. Fit cost is not
// additive, so estimators alone are fitted twice, on S1 and on S2; the S2
// model feeds the apply-model nodes downstream. Node outputs are memoized
// (the sample is small, recompute semantics are irrelevant here).
type sampleRun struct {
	g            *core.Graph
	ctx          *engine.Context
	cfg          Config
	fullN        int
	data, labels sample
	chosen       map[int]string
	memo         map[int]sample
	models       map[int]core.TransformOp
	times        map[int][2]time.Duration // local time over S1, over S2
	stats        map[int]cost.DataStats   // output statistics over S2
}

func newSampleRun(g *core.Graph, ctx *engine.Context, data, labels sample, fullN int, cfg Config) *sampleRun {
	return &sampleRun{
		g: g, ctx: ctx, cfg: cfg, fullN: fullN,
		data: data, labels: labels,
		chosen: make(map[int]string),
		memo:   make(map[int]sample),
		models: make(map[int]core.TransformOp),
		times:  make(map[int][2]time.Duration),
		stats:  make(map[int]cost.DataStats),
	}
}

// run executes every reachable node once; topological order guarantees a
// node's dependencies are memoized before it runs.
func (s *sampleRun) run() {
	for _, n := range s.g.Topological() {
		out := s.eval(n)
		s.memo[n.ID] = out
		if n.Kind != core.KindEstimator {
			s.stats[n.ID] = statsOf(out, s.fullN, s.cfg.NumClasses)
		}
	}
}

func (s *sampleRun) eval(n *core.Node) sample {
	switch n.Kind {
	case core.KindSource:
		return s.data
	case core.KindLabels:
		return s.labels
	case core.KindTransform:
		in := s.memo[n.Deps[0].ID]
		if op, ok := s.choose(n, n.Transform).(core.TransformOp); ok {
			n.Transform = op
			s.chosen[n.ID] = op.Name()
		}
		return s.timeParts(n, func(i int) *engine.Collection {
			return core.MapOp(s.ctx, in[i], n.Transform)
		})
	case core.KindGather:
		return s.timeParts(n, func(i int) *engine.Collection {
			out := s.memo[n.Deps[0].ID][i]
			for _, d := range n.Deps[1:] {
				out = s.ctx.Zip(out, s.memo[d.ID][i], core.ConcatFeatures)
			}
			return out
		})
	case core.KindApplyModel:
		model := core.Fuse(s.models[n.Deps[0].ID], n.Chain)
		in := s.memo[n.Deps[1].ID]
		return s.timeParts(n, func(i int) *engine.Collection {
			return core.MapOp(s.ctx, in[i], model)
		})
	}
	// KindEstimator.
	in := s.memo[n.Deps[0].ID]
	var lab sample
	if len(n.Deps) > 1 {
		lab = s.memo[n.Deps[1].ID]
	}
	if op, ok := s.choose(n, n.Estimator).(core.EstimatorOp); ok {
		n.Estimator = op
		s.chosen[n.ID] = op.Name()
	}
	fit := func(data, labels *engine.Collection) (core.TransformOp, time.Duration) {
		var labelFetch core.Fetch
		if labels != nil {
			labelFetch = func() *engine.Collection { return labels }
		}
		start := time.Now()
		model := n.Estimator.Fit(s.ctx, func() *engine.Collection { return data }, labelFetch)
		return model, time.Since(start)
	}
	var t [2]time.Duration
	if in[0].Count() > 0 && in[1].Count() > 0 { // else S1 is S2 or empty: one point
		_, t[0] = fit(in[0], lab[0])
	}
	s.models[n.ID], t[1] = fit(in.all(), lab.all())
	s.times[n.ID] = t
	return sample{} // estimators produce models, not data
}

// timeParts runs a record-wise step over the S1 part and then the
// remainder, recording the node's time over S1 and over all of S2.
func (s *sampleRun) timeParts(n *core.Node, step func(part int) *engine.Collection) (out sample) {
	start := time.Now()
	out[0] = step(0)
	t1 := time.Since(start)
	out[1] = step(1)
	s.times[n.ID] = [2]time.Duration{t1, time.Since(start)}
	return out
}

// choose returns the cost-model winner among the physical options of node
// n's operator under its input's (= its first dependency's output)
// statistics, or nil when selection is off or it offers no options.
func (s *sampleRun) choose(n *core.Node, op any) any {
	opt, ok := op.(core.Optimizable)
	if !ok || s.cfg.Level < LevelFull {
		return nil
	}
	options := opt.Options()
	if len(options) == 0 {
		return nil
	}
	return options[cost.Choose(options, s.stats[n.Deps[0].ID], s.cfg.Resources)].Operator
}
