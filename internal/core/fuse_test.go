package core

import (
	"reflect"
	"testing"

	"keystoneml/internal/engine"
)

// fuseOp is a ChainOp fixture: it records the chain it is offered and
// absorbs up to absorb of its last operators.
type fuseOp struct {
	absorb  int
	offered []string
}

func (o *fuseOp) Name() string { return "fuse" }

func (o *fuseOp) Apply(in any) any { return append([]float64{-1}, in.([]float64)...) }

func (o *fuseOp) FuseChain(chain []TransformOp) (int, func() func(any) any) {
	for _, op := range chain {
		o.offered = append(o.offered, op.Name())
	}
	n := min(o.absorb, len(chain))
	tail := chain[len(chain)-n:]
	return n, func() func(any) any {
		return func(in any) any {
			for _, op := range tail {
				in = op.Apply(in)
			}
			return o.Apply(in)
		}
	}
}

func appendOp(name string, v float64) TransformOp {
	return NewTransform(name, func(in any) any { return append(append([]float64(nil), in.([]float64)...), v) })
}

// TestFuseChain: a ChainOp is offered the straight chain behind it, cut
// at the first step something else also reads; the run form drops what
// it absorbs, the persisted plan keeps every step, and both forms give
// Apply's output.
func TestFuseChain(t *testing.T) {
	for _, c := range []struct {
		name                string
		absorb              int
		shared              bool // b also feeds the output gather
		offered             []string
		planSteps, runSteps int
	}{
		{"absorbs two", 2, false, []string{"a", "b", "c"}, 6, 4},
		{"declines", 0, false, []string{"a", "b", "c"}, 6, 6},
		{"cut at a shared step", 2, true, []string{"c"}, 7, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGraph()
			a := g.AddTransform(appendOp("a", 1), g.Source)
			b := g.AddTransform(appendOp("b", 2), a)
			cc := g.AddTransform(appendOp("c", 3), b)
			op := &fuseOp{absorb: c.absorb}
			out := g.AddTransform(appendOp("d", 4), g.AddTransform(op, cc))
			if c.shared {
				g.AddGather([]*Node{out, b})
			}
			f := NewFitted(g, nil, engine.NewContext(1))
			if !reflect.DeepEqual(op.offered, c.offered) {
				t.Errorf("offered %v, want %v", op.offered, c.offered)
			}
			if len(f.plan) != c.planSteps || len(f.steps) != c.runSteps {
				t.Errorf("plan has %d steps and run form %d, want %d and %d", len(f.plan), len(f.steps), c.planSteps, c.runSteps)
			}
			rec := []float64{0}
			want := f.Apply(engine.FromSlice([]any{rec}, 1)).Collect()[0]
			if got := f.TransformOne(rec); !reflect.DeepEqual(got, want) {
				t.Errorf("TransformOne = %v, Apply = %v", got, want)
			}
		})
	}
}
