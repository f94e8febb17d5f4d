package core

import (
	"fmt"
	"strings"
)

// NodeKind distinguishes the structural roles nodes play in a pipeline DAG.
type NodeKind int

const (
	// KindSource is the training-data input placeholder.
	KindSource NodeKind = iota
	// KindLabels is the label input placeholder.
	KindLabels
	// KindTransform applies a TransformOp to its single data dependency.
	KindTransform
	// KindEstimator fits an EstimatorOp on its data dependency (and the
	// label source if supervised), producing a model.
	KindEstimator
	// KindApplyModel applies the model produced by an estimator dependency
	// to a data dependency.
	KindApplyModel
	// KindGather concatenates the feature-vector outputs of several
	// branches element-wise (Pipeline.gather in the paper, fused with the
	// feature concatenation it is invariably followed by).
	KindGather
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindLabels:
		return "labels"
	case KindTransform:
		return "transform"
	case KindEstimator:
		return "estimator"
	case KindApplyModel:
		return "apply"
	case KindGather:
		return "gather"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one operator in the pipeline DAG.
type Node struct {
	ID   int
	Kind NodeKind
	// Deps are direct predecessors (χ(v) in the paper's notation): the
	// nodes whose outputs this node consumes. For KindApplyModel, Deps[0]
	// is the estimator node and Deps[1] the data node.
	Deps []*Node

	// Transform is set for KindTransform nodes.
	Transform TransformOp
	// Estimator is set for KindEstimator nodes.
	Estimator EstimatorOp
	// Chain is set on a KindApplyModel node of a fit graph whose
	// estimator fits through the transform chain feeding it (see
	// ChainEstimator): the node applies Fuse(model, Chain) to Deps[1],
	// the chain's input.
	Chain []TransformOp
}

// OpName returns the logical operator name for display.
func (n *Node) OpName() string {
	switch {
	case n.Transform != nil:
		return n.Transform.Name()
	case n.Estimator != nil:
		return n.Estimator.Name()
	default:
		return n.Kind.String()
	}
}

// Weight returns the node's pass count over its inputs: Iterative
// estimators declare it, everything else is 1.
func (n *Node) Weight() int {
	var op any
	switch {
	case n.Estimator != nil:
		op = n.Estimator
	case n.Transform != nil:
		op = n.Transform
	default:
		return 1
	}
	if it, ok := op.(Iterative); ok {
		if w := it.Weight(); w > 1 {
			return w
		}
	}
	return 1
}

// Graph is a pipeline operator DAG under construction or optimization.
// Nodes are identified by dense integer IDs; the graph owns them.
type Graph struct {
	Nodes  []*Node
	Source *Node
	Labels *Node
	Sink   *Node
}

// NewGraph creates a graph containing only the source and label
// placeholders.
func NewGraph() *Graph {
	g := &Graph{}
	g.Source = g.add(&Node{Kind: KindSource})
	g.Labels = g.add(&Node{Kind: KindLabels})
	g.Sink = g.Source
	return g
}

// add registers a node and makes it the sink: pipelines are built
// append-only, so the most recently added node is always the current
// output (gather and apply-model nodes are added after the branches and
// estimators they consume).
func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	if n.Kind != KindLabels && n.Kind != KindEstimator {
		g.Sink = n
	}
	return n
}

// AddTransform appends a transformer node reading from dep.
func (g *Graph) AddTransform(op TransformOp, dep *Node) *Node {
	return g.add(&Node{Kind: KindTransform, Transform: op, Deps: []*Node{dep}})
}

// AddEstimator appends an estimator node fit on dep; if supervised is true
// the node also depends on the label source.
func (g *Graph) AddEstimator(op EstimatorOp, dep *Node, supervised bool) *Node {
	deps := []*Node{dep}
	if supervised {
		deps = append(deps, g.Labels)
	}
	return g.add(&Node{Kind: KindEstimator, Estimator: op, Deps: deps})
}

// AddApplyModel appends a node applying est's fitted model to data.
func (g *Graph) AddApplyModel(est, data *Node) *Node {
	return g.add(&Node{Kind: KindApplyModel, Deps: []*Node{est, data}})
}

// AddGather appends a node concatenating the outputs of branches.
func (g *Graph) AddGather(branches []*Node) *Node {
	deps := append([]*Node(nil), branches...)
	return g.add(&Node{Kind: KindGather, Deps: deps})
}

// Clone returns a structurally identical copy of the graph with fresh
// Node records (IDs preserved) sharing the operator values, which are
// stateless by the TransformOp/EstimatorOp contract. Optimizer rewrites
// of the clone (operator substitution, CSE dep rewiring) leave the
// original untouched — this is what lets a public Pipeline stay reusable
// across Fit calls.
func (g *Graph) Clone() *Graph {
	c := &Graph{Nodes: make([]*Node, len(g.Nodes))}
	for i, n := range g.Nodes {
		c.Nodes[i] = &Node{ID: n.ID, Kind: n.Kind, Transform: n.Transform, Estimator: n.Estimator, Chain: n.Chain}
	}
	for i, n := range g.Nodes {
		if len(n.Deps) == 0 {
			continue
		}
		deps := make([]*Node, len(n.Deps))
		for j, d := range n.Deps {
			deps[j] = c.Nodes[d.ID]
		}
		c.Nodes[i].Deps = deps
	}
	c.Source = c.Nodes[g.Source.ID]
	c.Labels = c.Nodes[g.Labels.ID]
	c.Sink = c.Nodes[g.Sink.ID]
	return c
}

// Successors returns, for every node ID, the IDs of its direct successors
// (π(v)): the nodes that consume its output.
func (g *Graph) Successors() map[int][]int {
	succ := make(map[int][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			succ[d.ID] = append(succ[d.ID], n.ID)
		}
	}
	return succ
}

// Topological returns the nodes reachable from the sink in dependency
// order (dependencies before dependents). Unreachable nodes are omitted,
// which is how dead branches disappear after CSE rewrites.
func (g *Graph) Topological() []*Node {
	var order []*Node
	state := make(map[int]int, len(g.Nodes)) // 0 unvisited, 1 visiting, 2 done
	var visit func(n *Node)
	visit = func(n *Node) {
		switch state[n.ID] {
		case 1:
			panic(fmt.Sprintf("core: cycle detected at node %d (%s)", n.ID, n.OpName()))
		case 2:
			return
		}
		state[n.ID] = 1
		for _, d := range n.Deps {
			visit(d)
		}
		state[n.ID] = 2
		order = append(order, n)
	}
	visit(g.Sink)
	return order
}

// Reachable returns the set of node IDs reachable from the sink.
func (g *Graph) Reachable() map[int]bool {
	r := make(map[int]bool)
	for _, n := range g.Topological() {
		r[n.ID] = true
	}
	return r
}

// String renders the reachable DAG, one node per line, for debugging and
// the Figure 11 style cache-set reports.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Topological() {
		fmt.Fprintf(&b, "#%d %s %s", n.ID, n.Kind, n.OpName())
		if len(n.Deps) > 0 {
			b.WriteString(" <- [")
			for i, d := range n.Deps {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "#%d", d.ID)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
