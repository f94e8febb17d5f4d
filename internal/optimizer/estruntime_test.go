package optimizer

import "keystoneml/internal/core"

// executionCounts computes, for every reachable node, how many times its
// computation will run under a given cache set. This is the T(v)/C(v)
// recurrence of Section 4.3 in execution-count form:
//
//	accesses(v) = Σ_{p ∈ π(v)} w(p) · computes(p)   (sink gets 1 external access)
//	computes(v) = 1 if v is cached, else accesses(v)
//
// with two refinements matching the executor's actual semantics: fitted
// models are memoized, so estimator nodes compute exactly once regardless
// of caching (it is their *inputs* that are refetched w times per fit),
// and an estimator accesses its label dependency only once per fit.
func executionCounts(g *core.Graph, cached map[int]bool) map[int]float64 {
	order := g.Topological()
	accesses := make(map[int]float64, len(order))
	computes := make(map[int]float64, len(order))
	accesses[g.Sink.ID] += 1 // the pipeline output is consumed once

	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		a := accesses[v.ID]
		var comp float64
		switch v.Kind {
		case core.KindEstimator:
			comp = 1
		case core.KindSource, core.KindLabels:
			comp = a // free: bound input collections; t(v) = 0
		default:
			if cached[v.ID] {
				comp = min(a, 1)
			} else {
				comp = a
			}
		}
		computes[v.ID] = comp
		switch v.Kind {
		case core.KindEstimator:
			w := float64(v.Weight())
			accesses[v.Deps[0].ID] += w * comp
			if len(v.Deps) > 1 {
				accesses[v.Deps[1].ID] += comp
			}
		case core.KindApplyModel:
			// Deps[0] is the estimator (model access, free); Deps[1] is data.
			accesses[v.Deps[1].ID] += comp
		default:
			for _, d := range v.Deps {
				accesses[d.ID] += comp
			}
		}
	}
	return computes
}

// EstRuntime estimates total pipeline execution time (seconds) under a
// cache set, using the profile's per-node local times: Σ_v t(v)·computes(v).
// This is the paper's sequential cost model in closed form — exact for the
// depth-first oracle, an overestimate under the parallel scheduler, where
// branch recomputes overlap. The planner itself prices cache sets with the
// schedule plan's recursion (EstCost); this stays as the reference that
// recursion is checked against at one worker.
func EstRuntime(g *core.Graph, prof *Profile, cached map[int]bool) float64 {
	computes := executionCounts(g, cached)
	var total float64
	for id, c := range computes {
		if np, ok := prof.Nodes[id]; ok {
			total += np.TimeSec * c
		}
	}
	return total
}
