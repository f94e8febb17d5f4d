package core

import (
	"fmt"
	"sync"

	"keystoneml/internal/engine"
)

// StateCodec is implemented by transform operators whose fitted state can
// be serialized into an artifact. StateKind returns a stable identifier
// for the operator's on-disk payload format (it need not equal Name());
// a decoder for the same kind must be registered via RegisterStateDecoder,
// conventionally from the operator package's init.
type StateCodec interface {
	// StateKind identifies the payload format, e.g. "model.linear".
	StateKind() string
	// EncodeState serializes the operator's fitted state.
	EncodeState() ([]byte, error)
}

// funcOpKind marks steps whose operator carries no fitted state and is
// reconstructed purely from its Name() via the registered resolvers.
const funcOpKind = "core.func"

var (
	persistMu     sync.RWMutex
	stateDecoders = map[string]func([]byte) (TransformOp, error){}
	funcResolvers []func(name string) (TransformOp, bool)
)

// RegisterStateDecoder installs the decoder for one StateKind. Operator
// packages call it from init; registering the same kind twice panics,
// which catches kind-string collisions at program start.
func RegisterStateDecoder(kind string, dec func([]byte) (TransformOp, error)) {
	persistMu.Lock()
	defer persistMu.Unlock()
	if _, dup := stateDecoders[kind]; dup {
		panic(fmt.Sprintf("core: duplicate state decoder for kind %q", kind))
	}
	stateDecoders[kind] = dec
}

// RegisterFuncResolver installs a resolver that reconstructs stateless
// function operators from their Name(). A resolver returns (op, true)
// when it recognizes the name; resolvers are consulted in registration
// order. The contract is that the resolved operator's Apply behaves
// identically to the original — names therefore must fully determine
// behaviour (parameters embedded in the name, e.g. "text.ngrams[1-2]").
func RegisterFuncResolver(fn func(name string) (TransformOp, bool)) {
	persistMu.Lock()
	defer persistMu.Unlock()
	funcResolvers = append(funcResolvers, fn)
}

// resolveFuncOp reconstructs a stateless operator from its name.
func resolveFuncOp(name string) (TransformOp, bool) {
	persistMu.RLock()
	defer persistMu.RUnlock()
	for _, fn := range funcResolvers {
		if op, ok := fn(name); ok {
			return op, true
		}
	}
	return nil, false
}

// EncodeOp serializes one transform operator: stateful operators through
// their StateCodec, stateless ones by name when a resolver recognizes it.
// Operators that are neither cannot be persisted.
func EncodeOp(op TransformOp) (kind string, state []byte, err error) {
	if sc, ok := op.(StateCodec); ok {
		state, err = sc.EncodeState()
		if err != nil {
			return "", nil, fmt.Errorf("core: encode state of %q: %w", op.Name(), err)
		}
		return sc.StateKind(), state, nil
	}
	name := op.Name()
	if _, ok := resolveFuncOp(name); ok {
		return funcOpKind, []byte(name), nil
	}
	return "", nil, fmt.Errorf("core: operator %q supports neither StateCodec nor name resolution; it cannot be persisted", name)
}

// DecodeOp reconstructs a transform operator from its encoded form.
func DecodeOp(kind string, state []byte) (TransformOp, error) {
	if kind == funcOpKind {
		name := string(state)
		op, ok := resolveFuncOp(name)
		if !ok {
			return nil, fmt.Errorf("core: no resolver for stateless operator %q", name)
		}
		return op, nil
	}
	persistMu.RLock()
	dec := stateDecoders[kind]
	persistMu.RUnlock()
	if dec == nil {
		return nil, fmt.Errorf("core: no state decoder registered for kind %q", kind)
	}
	op, err := dec(state)
	if err != nil {
		return nil, fmt.Errorf("core: decode %q state: %w", kind, err)
	}
	return op, nil
}

// StepRecord is the serialized form of one step of a fitted pipeline's
// precompiled plan. Kind is the node kind's String form; apply-model
// steps are normalized to "transform" at encode time (a fitted model is
// just a transformer), so only "source", "transform" and "gather" appear
// in artifacts.
type StepRecord struct {
	// Kind is "source", "transform" or "gather".
	Kind string
	// Deps are indices of earlier steps whose outputs this step consumes.
	Deps []int
	// Op is the operator's state kind ("" for source/gather steps).
	Op string
	// State is the operator's encoded fitted state.
	State []byte
	// Name is the operator's display name, carried for diagnostics.
	Name string
}

// StepRecords serializes the fitted pipeline's plan, one record per step
// in dependency order. It fails if any step's operator cannot be encoded
// or if the plan reads labels at apply time.
func (f *Fitted) StepRecords() ([]StepRecord, error) {
	recs := make([]StepRecord, len(f.plan))
	for i := range f.plan {
		st := &f.plan[i]
		switch st.kind {
		case KindSource:
			recs[i] = StepRecord{Kind: KindSource.String()}
		case KindGather:
			recs[i] = StepRecord{Kind: KindGather.String(), Deps: append([]int(nil), st.deps...)}
		case KindTransform, KindApplyModel:
			if st.op == nil {
				return nil, fmt.Errorf("core: step %d (%s) has no fitted model; cannot persist an unfit pipeline", i, st.name)
			}
			kind, state, err := EncodeOp(st.op)
			if err != nil {
				return nil, err
			}
			recs[i] = StepRecord{
				Kind:  KindTransform.String(),
				Deps:  append([]int(nil), st.deps...),
				Op:    kind,
				State: state,
				Name:  st.op.Name(),
			}
		case KindLabels:
			return nil, fmt.Errorf("core: step %d reads labels at apply time; such a pipeline cannot be persisted", i)
		default:
			return nil, fmt.Errorf("core: unexpected step kind %v at persist time", st.kind)
		}
	}
	return recs, nil
}

// FittedFromSteps reconstructs a fitted pipeline from serialized step
// records: operators are decoded, a minimal apply-time graph is rebuilt
// (so the Collection-based Apply oracle still works on loaded pipelines),
// and the plan is recompiled through NewFitted, guaranteeing loaded and
// in-memory pipelines share the exact same evaluation path. outIdx is the
// step whose output is the pipeline result.
func FittedFromSteps(recs []StepRecord, outIdx int, ctx *engine.Context) (*Fitted, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: empty step plan")
	}
	if outIdx < 0 || outIdx >= len(recs) {
		return nil, fmt.Errorf("core: plan output index %d out of range [0,%d)", outIdx, len(recs))
	}
	g := NewGraph()
	nodes := make([]*Node, len(recs))
	for i, r := range recs {
		for _, d := range r.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("core: step %d dependency %d violates topological order", i, d)
			}
		}
		switch r.Kind {
		case KindSource.String():
			nodes[i] = g.Source
		case KindTransform.String():
			if len(r.Deps) != 1 {
				return nil, fmt.Errorf("core: transform step %d has %d dependencies, want 1", i, len(r.Deps))
			}
			op, err := DecodeOp(r.Op, r.State)
			if err != nil {
				return nil, err
			}
			nodes[i] = g.AddTransform(op, nodes[r.Deps[0]])
		case KindGather.String():
			if len(r.Deps) == 0 {
				return nil, fmt.Errorf("core: gather step %d has no dependencies", i)
			}
			deps := make([]*Node, len(r.Deps))
			for j, d := range r.Deps {
				deps[j] = nodes[d]
			}
			nodes[i] = g.AddGather(deps)
		default:
			return nil, fmt.Errorf("core: unknown step kind %q", r.Kind)
		}
	}
	g.Sink = nodes[outIdx]
	return NewFitted(g, nil, ctx), nil
}

// ShapeSpec renders a plan's structural fingerprint: step kinds, operator
// kinds and dependency wiring, but no fitted state. Two pipelines with
// the same ShapeSpec run the same operators in the same topology, which
// is what artifact compatibility checks compare.
func ShapeSpec(recs []StepRecord) string {
	out := make([]byte, 0, 32*len(recs))
	for i, r := range recs {
		out = append(out, fmt.Sprintf("%d:%s:%s:%v;", i, r.Kind, r.Op, r.Deps)...)
	}
	return string(out)
}

// OutIdx exposes the plan's output step index for persistence.
func (f *Fitted) OutIdx() int { return f.planOut }
