package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
	"sync"

	"keystoneml/internal/engine"
)

// ChainOp is the optional fused form of a TransformOp: the operator takes
// over the straight chain of transform steps feeding it, and one function
// evaluates the chain and the operator together.
//
// Fusion is decided in one place, ChainFeeding, for the two forms of a
// pipeline that run records: the run form of a fitted plan (compileRun)
// and the fit graph the optimizer executes, where a transform step whose
// operator is a ChainOp applies Fuse(op, chain) to the chain's input
// (estimators fuse through ChainEstimator). The persisted plan keeps
// every step, so a loaded artifact fuses again when NewFitted compiles
// it.
//
// The fused function must give, for every record, exactly what applying
// the absorbed operators in turn and then the operator's own Apply gives,
// panics included.
type ChainOp interface {
	TransformOp
	// FuseChain is offered the operators of the chain feeding this one,
	// in evaluation order: the last feeds it directly, and each is the
	// only input of the next. It returns how many of the chain's last
	// operators it absorbs, and newApply, which makes a function standing
	// for them and itself that takes the first absorbed operator's input;
	// n = 0 declines. Each function newApply makes owns its scratch and
	// serves one goroutine at a time.
	FuseChain(chain []TransformOp) (n int, newApply func() func(in any) any)
}

// ChainEstimator is the fit-time counterpart of ChainOp: an estimator
// that fits through the chain of transform steps feeding it. FuseChain
// is offered that chain as ChainOp's is; it returns how many of the
// chain's last operators it absorbs and the estimator that, fit on the
// first absorbed operator's input, returns exactly the model this one
// returns fit on the chain's output (n = 0 declines). That model must be
// a ChainOp absorbing the same operators, because the fit graph applies
// it to the same input (Node.Chain).
type ChainEstimator interface {
	EstimatorOp
	FuseChain(chain []TransformOp) (n int, fit EstimatorOp)
}

// ChainFeeding is the fusion matcher: the longest chain of transform
// steps ending at tail, in evaluation order, with their operators. It
// walks back from tail through each step's input while link accepts the
// step; link reports a step's operator and input, and whether the fusing
// consumer may absorb it — a transform step whose output nothing else
// reads.
func ChainFeeding[T any](tail T, link func(step T) (op TransformOp, in T, ok bool)) (steps []T, ops []TransformOp) {
	for s := tail; ; {
		op, in, ok := link(s)
		if !ok {
			break
		}
		steps, ops = append(steps, s), append(ops, op)
		s = in
	}
	slices.Reverse(steps)
	slices.Reverse(ops)
	return steps, ops
}

// compileRun derives the run form from the plan. Each ChainOp step is
// offered the longest chain of transform steps behind it whose outputs
// nothing else reads (the pipeline output counts as a reader); the steps
// it absorbs drop out and the fused step reads the chain's input. Every
// other step keeps its place, with its dependencies renumbered.
func (f *Fitted) compileRun() {
	readers := make([]int, len(f.plan))
	readers[f.planOut]++
	for _, st := range f.plan {
		for _, d := range st.deps {
			readers[d]++
		}
	}
	run := slices.Clone(f.plan)
	absorbed := make([]bool, len(run))
	for i := range run {
		co, ok := run[i].op.(ChainOp)
		if !ok {
			continue
		}
		chain, ops := ChainFeeding(run[i].deps[0], func(d int) (TransformOp, int, bool) {
			if st := &run[d]; st.op != nil && readers[d] == 1 {
				return st.op, st.deps[0], true
			}
			return nil, 0, false
		})
		n, newApply := co.FuseChain(ops)
		if n <= 0 {
			continue
		}
		chain = chain[len(chain)-n:]
		for _, d := range chain {
			absorbed[d] = true
		}
		fused := newFused(run[i].op, ops[len(ops)-n:], newApply)
		run[i].deps = []int{run[chain[0]].deps[0]}
		run[i].apply, run[i].op, run[i].name = fused.Apply, nil, fused.Name()
	}

	at := make([]int, len(run))
	f.steps = make([]fittedStep, 0, len(run))
	for i, st := range run {
		if absorbed[i] {
			continue
		}
		deps := make([]int, len(st.deps))
		for k, d := range st.deps {
			deps[k] = at[d]
		}
		st.deps = deps
		at[i] = len(f.steps)
		f.steps = append(f.steps, st)
	}
	f.outIdx = at[f.planOut]
}

// RunNames lists the operator names of the run form's steps in
// evaluation order, a fused step under its fused name ("a+b"): the steps
// TransformOne runs.
func (f *Fitted) RunNames() []string {
	names := make([]string, len(f.steps))
	for i, st := range f.steps {
		names[i] = st.name
	}
	return names
}

// Fuse returns the operator standing for chain followed by op: op's
// fused form when op is a ChainOp absorbing the whole chain, the
// operators applied in turn otherwise, and op itself for an empty chain.
// The fit graph's apply-model nodes apply their model through it.
func Fuse(op TransformOp, chain []TransformOp) TransformOp {
	if len(chain) == 0 {
		return op
	}
	var newApply func() func(any) any
	if co, ok := op.(ChainOp); ok {
		if n, fn := co.FuseChain(chain); n == len(chain) {
			newApply = fn
		}
	}
	return newFused(op, chain, newApply)
}

// fusedOp is a ChainOp together with the chain it absorbed, as one
// TransformOp. Apply serves concurrent callers from a pool of fused
// functions; MapOp makes one per partition, so a fit's scratch is its
// partition loop's. Its StateCodec ships it to dist workers, which
// fuse again; the persisted plan never holds one.
type fusedOp struct {
	ops      []TransformOp // the absorbed chain, then the fusing operator
	newApply func() func(any) any
	pool     sync.Pool // *fusedFunc
}

// fusedFunc boxes one fused function for the pool.
type fusedFunc struct{ apply func(any) any }

// newFused builds the fused operator; a nil newApply composes the
// operators instead.
func newFused(op TransformOp, chain []TransformOp, newApply func() func(any) any) *fusedOp {
	f := &fusedOp{ops: append(slices.Clone(chain), op), newApply: newApply}
	if f.newApply == nil {
		f.newApply = func() func(any) any { return f.composed }
	}
	f.pool.New = func() any { return &fusedFunc{f.newApply()} }
	return f
}

func (f *fusedOp) composed(in any) any {
	for _, op := range f.ops {
		in = op.Apply(in)
	}
	return in
}

// Name implements TransformOp: the operators' names joined by '+'.
func (f *fusedOp) Name() string {
	names := make([]string, len(f.ops))
	for i, op := range f.ops {
		names[i] = op.Name()
	}
	return strings.Join(names, "+")
}

// Apply implements TransformOp.
func (f *fusedOp) Apply(in any) any {
	fn := f.pool.Get().(*fusedFunc)
	out := fn.apply(in)
	f.pool.Put(fn)
	return out
}

// applyPartition maps the operator over one partition with one fused
// function.
func (f *fusedOp) applyPartition(part []any) []any {
	apply := f.newApply()
	out := make([]any, len(part))
	for i, rec := range part {
		out[i] = apply(rec)
	}
	return out
}

// MapOp maps op over c: a fused operator a partition at a time, any
// other record by record. Every fit-time application of an operator goes
// through it.
func MapOp(ctx *engine.Context, c *engine.Collection, op TransformOp) *engine.Collection {
	if f, ok := op.(*fusedOp); ok {
		return ctx.MapPartitions(c, f.applyPartition)
	}
	return ctx.Map(c, op.Apply)
}

// fusedKind is fusedOp's StateKind.
const fusedKind = "core.fused"

// encodedOp is one operator of a fusedOp's state, as EncodeOp gives it.
type encodedOp struct {
	Kind  string
	State []byte
}

// StateKind implements StateCodec.
func (f *fusedOp) StateKind() string { return fusedKind }

// EncodeState implements StateCodec: every operator, encoded in order.
func (f *fusedOp) EncodeState() ([]byte, error) {
	recs := make([]encodedOp, len(f.ops))
	for i, op := range f.ops {
		kind, state, err := EncodeOp(op)
		if err != nil {
			return nil, err
		}
		recs[i] = encodedOp{kind, state}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(recs)
	return buf.Bytes(), err
}

func init() {
	RegisterStateDecoder(fusedKind, func(state []byte) (TransformOp, error) {
		var recs []encodedOp
		if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&recs); err != nil {
			return nil, err
		}
		if len(recs) < 2 {
			return nil, fmt.Errorf("core: fused operator of %d operators", len(recs))
		}
		ops := make([]TransformOp, len(recs))
		for i, r := range recs {
			op, err := DecodeOp(r.Kind, r.State)
			if err != nil {
				return nil, err
			}
			ops[i] = op
		}
		last := len(ops) - 1
		return Fuse(ops[last], ops[:last]), nil
	})
}
