package core

import (
	"fmt"
	"sort"
	"sync"
)

// LineageKind classifies how a named distributed dataset came to exist.
type LineageKind int

// The three derivation forms the distributed executor produces: a root
// load from the coordinator's partitions, an operator application over
// one parent, and a gather-join of two parents.
const (
	LineageRoot LineageKind = iota
	LineageApply
	LineageZip
)

// String names the derivation form for error messages and logs.
func (k LineageKind) String() string {
	switch k {
	case LineageRoot:
		return "root"
	case LineageApply:
		return "apply"
	case LineageZip:
		return "zip"
	default:
		return fmt.Sprintf("lineage(%d)", int(k))
	}
}

// LineageNode records one dataset's derivation: the op that produced it
// (as the same (state kind, state bytes) pair that crossed the wire, per
// EncodeOp) and the parent dataset names it was produced from. Because
// every recorded op is deterministic and partition-local, a node's
// partitions can be rebuilt bit-identically on any worker by replaying
// the chain from its roots — the property the distributed tier's
// failure recovery rests on.
type LineageNode struct {
	Name    string
	Kind    LineageKind
	OpKind  string   // EncodeOp state kind (LineageApply only)
	OpState []byte   // EncodeOp state bytes (LineageApply only)
	Parents []string // parent dataset names, in op-argument order
	// Live marks datasets currently resident on the workers; dropped
	// (freed) nodes are kept because live descendants still replay
	// through them.
	Live bool

	seq int // creation order, the topological tiebreaker
}

// Lineage is the coordinator-side record of how every distributed
// dataset in one fit derives from root partition loads. It is the
// recompute-on-loss counterpart of the schedule plan: the plan decides
// which datasets stay resident, the lineage remembers how each resident
// (and in-flight temporary) dataset was built, so a lost partition is a
// replayable chain, not lost work. Safe for concurrent use.
type Lineage struct {
	mu    sync.Mutex
	nodes map[string]*LineageNode
	seq   int
}

// NewLineage returns an empty lineage record.
func NewLineage() *Lineage {
	return &Lineage{nodes: make(map[string]*LineageNode)}
}

func (l *Lineage) put(n *LineageNode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	n.seq = l.seq
	n.Live = true
	l.nodes[n.Name] = n
}

// Root records name as a root dataset: its partitions originate on the
// coordinator, which can reload any of them on demand.
func (l *Lineage) Root(name string) {
	l.put(&LineageNode{Name: name, Kind: LineageRoot})
}

// Apply records dst as the application of the encoded operator (opKind,
// opState) over src.
func (l *Lineage) Apply(dst, src, opKind string, opState []byte) {
	l.put(&LineageNode{Name: dst, Kind: LineageApply, OpKind: opKind, OpState: opState, Parents: []string{src}})
}

// Zip records dst as the partition-aligned gather-join of a and b.
func (l *Lineage) Zip(dst, a, b string) {
	l.put(&LineageNode{Name: dst, Kind: LineageZip, Parents: []string{a, b}})
}

// Drop marks name as no longer resident. The node itself is retained:
// live descendants replay through dropped intermediates, recreating them
// as scratch datasets during recovery.
func (l *Lineage) Drop(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, ok := l.nodes[name]; ok {
		n.Live = false
	}
}

// Node returns a copy of name's lineage record.
func (l *Lineage) Node(name string) (LineageNode, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.nodes[name]
	if !ok {
		return LineageNode{}, false
	}
	return *n, true
}

// Live returns the names of all currently resident datasets, sorted by
// creation order.
func (l *Lineage) Live() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var live []*LineageNode
	for _, n := range l.nodes {
		if n.Live {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	out := make([]string, len(live))
	for i, n := range live {
		out[i] = n.Name
	}
	return out
}

// ReplayOrder returns the ancestor closure of the given targets in
// topological (parents-before-children) order — the exact op sequence a
// recovery pass replays to rebuild the targets' lost partitions from
// their roots. Dropped intermediates appear in the order (they must be
// recreated as scratch); an unknown target or a parent recorded after a
// wire op it should precede is an error. Ties break on creation order,
// so the replay program is deterministic for a given recording.
func (l *Lineage) ReplayOrder(targets []string) ([]LineageNode, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var order []LineageNode
	state := make(map[string]int, len(l.nodes)) // 0 unvisited, 1 in-stack, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("core: lineage cycle through %q", name)
		}
		n, ok := l.nodes[name]
		if !ok {
			return fmt.Errorf("core: no lineage for dataset %q", name)
		}
		state[name] = 1
		for _, p := range n.Parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, *n)
		return nil
	}
	sorted := append([]string(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := l.nodes[sorted[i]], l.nodes[sorted[j]]
		if a == nil || b == nil {
			return sorted[i] < sorted[j]
		}
		return a.seq < b.seq
	})
	for _, t := range sorted {
		if err := visit(t); err != nil {
			return nil, err
		}
	}
	return order, nil
}
