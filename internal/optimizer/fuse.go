package optimizer

import (
	"slices"

	"keystoneml/internal/core"
)

// fuseFit returns g's fit graph, or nil when nothing in g fuses. In the
// fit graph every core.ChainEstimator that absorbs the transform chain
// feeding it fits on the chain's input in its fused form, and each of its
// apply-model nodes applies the model fused with the absorbed operators
// (core.Node.Chain) to that input too. The absorbed steps drop out as
// unreachable. The fit graph is a clone with g's node IDs, so its models,
// profile and cache set key the same nodes as g, which stays the logical
// plan a fitted pipeline persists.
//
// A chain is absorbed only if nothing outside the fusion reads it: its
// output feeds the estimator and that estimator's apply-model nodes
// alone, and every earlier step feeds only the next.
func fuseFit(g *core.Graph) *core.Graph {
	if !slices.ContainsFunc(g.Nodes, func(n *core.Node) bool {
		_, ok := n.Estimator.(core.ChainEstimator)
		return ok
	}) {
		return nil
	}
	f := g.Clone()
	fused := false
	for _, est := range f.Topological() {
		ce, ok := est.Estimator.(core.ChainEstimator)
		if !ok || est.Deps[0] == f.Sink {
			continue
		}
		readers := readersOf(f)
		tail := est.Deps[0]
		var applies []*core.Node
		for _, r := range readers[tail.ID] {
			switch {
			case r == est:
			case r.Kind == core.KindApplyModel && r.Deps[0] == est:
				applies = append(applies, r)
			default:
				applies, ok = nil, false
			}
		}
		if !ok {
			continue
		}
		steps, ops := core.ChainFeeding(tail, func(n *core.Node) (core.TransformOp, *core.Node, bool) {
			if n.Kind != core.KindTransform || n == f.Sink || (n != tail && len(readers[n.ID]) != 1) {
				return nil, nil, false
			}
			return n.Transform, n.Deps[0], true
		})
		k, fit := ce.FuseChain(ops)
		if k <= 0 {
			continue
		}
		in, chain := steps[len(steps)-k].Deps[0], ops[len(ops)-k:]
		est.Estimator, est.Deps[0] = fit, in
		for _, a := range applies {
			a.Deps[1], a.Chain = in, chain
		}
		fused = true
	}
	if !fused {
		return nil
	}
	return f
}

// readersOf lists, for every reachable node, the reachable nodes that read
// its output.
func readersOf(g *core.Graph) map[int][]*core.Node {
	readers := make(map[int][]*core.Node)
	for _, n := range g.Topological() {
		for _, d := range n.Deps {
			readers[d.ID] = append(readers[d.ID], n)
		}
	}
	return readers
}
