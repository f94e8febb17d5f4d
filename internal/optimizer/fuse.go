package optimizer

import "keystoneml/internal/core"

// fuseFit returns g's fit graph, or nil when nothing in g fuses. In the
// fit graph
//   - every transform step whose operator is a core.ChainOp that absorbs
//     the transform chain feeding it applies core.Fuse(op, chain) to the
//     chain's input, as the run form of a fitted plan does;
//   - every core.ChainEstimator that absorbs the transform chain feeding
//     it fits on the chain's input in its fused form, and each of its
//     apply-model nodes applies the model fused with the absorbed
//     operators (core.Node.Chain) to that input too.
//
// The absorbed steps drop out as unreachable. The fit graph is a clone
// with g's node IDs, so its models, profile and cache set key the same
// nodes as g, which stays the logical plan a fitted pipeline persists.
//
// A chain is absorbed only if nothing outside the fusion reads it: its
// output feeds the fusing step alone (an estimator together with its
// apply-model nodes), and every earlier step feeds only the next.
func fuseFit(g *core.Graph) *core.Graph {
	f := g.Clone()
	fused := false
	for _, n := range f.Topological() {
		co, isOp := n.Transform.(core.ChainOp)
		ce, isEst := n.Estimator.(core.ChainEstimator)
		if !isOp && !isEst || n.Deps[0] == f.Sink {
			continue
		}
		readers := readersOf(f)
		tail := n.Deps[0]
		var applies []*core.Node
		ok := true
		for _, r := range readers[tail.ID] {
			switch {
			case r == n:
			case r.Kind == core.KindApplyModel && r.Deps[0] == n:
				applies = append(applies, r)
			default:
				applies, ok = nil, false
			}
		}
		if !ok {
			continue
		}
		steps, ops := core.ChainFeeding(tail, func(s *core.Node) (core.TransformOp, *core.Node, bool) {
			if s.Kind != core.KindTransform || s == f.Sink || (s != tail && len(readers[s.ID]) != 1) {
				return nil, nil, false
			}
			return s.Transform, s.Deps[0], true
		})
		var k int
		var fit core.EstimatorOp
		if isOp {
			k, _ = co.FuseChain(ops)
		} else {
			k, fit = ce.FuseChain(ops)
		}
		if k <= 0 {
			continue
		}
		in, chain := steps[len(steps)-k].Deps[0], ops[len(ops)-k:]
		n.Deps[0] = in
		if isOp {
			n.Transform = core.Fuse(co, chain)
		} else {
			n.Estimator = fit
			for _, a := range applies {
				a.Deps[1], a.Chain = in, chain
			}
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
