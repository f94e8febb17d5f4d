package core

import "slices"

// ChainOp is the optional fused form of a TransformOp: the operator takes
// over the straight chain of transform steps feeding it, and the run form
// of a fitted plan evaluates the chain and the operator as one function.
//
// The fused function must give, for every record, exactly what applying
// the absorbed operators in turn and then the operator's own Apply gives,
// panics included. The persisted plan keeps every step; only the run form
// is fused, so a loaded artifact fuses again when NewFitted compiles it.
type ChainOp interface {
	TransformOp
	// FuseChain is offered the operators of the chain feeding this one,
	// in evaluation order: the last feeds it directly, and each is the
	// only input of the next. It returns how many of the chain's last
	// operators it absorbs and the function standing for them and
	// itself, which takes the first absorbed operator's input; n = 0
	// declines.
	FuseChain(chain []TransformOp) (n int, apply func(in any) any)
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
		var chain []int
		for d := run[i].deps[0]; run[d].op != nil && readers[d] == 1; d = run[d].deps[0] {
			chain = append(chain, d)
		}
		slices.Reverse(chain)
		ops := make([]TransformOp, len(chain))
		for k, d := range chain {
			ops[k] = run[d].op
		}
		n, apply := co.FuseChain(ops)
		if n <= 0 {
			continue
		}
		chain = chain[len(chain)-n:]
		for _, d := range chain {
			absorbed[d] = true
		}
		run[i].deps = []int{run[chain[0]].deps[0]}
		run[i].apply, run[i].op = apply, nil
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
