package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// tileOp is a BlockOp fixture: copies scaled copies of the record,
// out[t*in+j] = x[j]*(t+1) + add. With add = -0 a -0 input stays -0, so
// the fixture carries signed zeros through every step. want > 0 makes it
// refuse other input widths; onBlock, when set, runs before each block.
type tileOp struct {
	copies  int
	add     float64
	want    int
	blocks  atomic.Int64
	onBlock func()
}

func (o *tileOp) Name() string { return fmt.Sprintf("tile%d", o.copies) }

func (o *tileOp) Apply(in any) any {
	x := in.([]float64)
	if o.want > 0 && len(x) != o.want {
		panic(fmt.Sprintf("tile: record has %d features, want %d", len(x), o.want))
	}
	out := make([]float64, 0, o.copies*len(x))
	for t := 0; t < o.copies; t++ {
		for _, v := range x {
			out = append(out, v*float64(t+1)+o.add)
		}
	}
	return out
}

func (o *tileOp) BlockRows(in int) (int, error) {
	if o.want > 0 && in != o.want {
		return 0, fmt.Errorf("tile: %d features, want %d", in, o.want)
	}
	return o.copies * in, nil
}

func (o *tileOp) ApplyBlock(dst, x *linalg.Matrix) error {
	o.blocks.Add(1)
	if o.onBlock != nil {
		o.onBlock()
	}
	n := x.Cols
	for t := 0; t < o.copies; t++ {
		for j := 0; j < x.Rows; j++ {
			src := x.Data[j*n : (j+1)*n]
			row := dst.Data[(t*x.Rows+j)*n : (t*x.Rows+j+1)*n]
			for r, v := range src {
				row[r] = v*float64(t+1) + o.add
			}
		}
	}
	return nil
}

// blockFitted builds source → {a, b} → gather(a, source, b, a) → c: a
// and b write in place into the gather's block, the source is packed
// straight into its window, and a's second window takes the copy path.
func blockFitted(parallelism int, want int) (*Fitted, *tileOp) {
	g := NewGraph()
	a := &tileOp{copies: 2, add: math.Copysign(0, -1), want: want}
	b := &tileOp{copies: 1, add: 0.5}
	c := &tileOp{copies: 1, add: -1}
	na := g.AddTransform(a, g.Source)
	nb := g.AddTransform(b, g.Source)
	gather := g.AddGather([]*Node{na, g.Source, nb, na})
	g.AddTransform(c, gather)
	return NewFitted(g, map[int]TransformOp{}, engine.NewContext(parallelism)), a
}

func blockRecordsOf(n, dim int) []any {
	recs := make([]any, n)
	for i := range recs {
		x := make([]float64, dim)
		for j := range x {
			switch (i + j) % 4 {
			case 0:
				x[j] = math.Copysign(0, -1)
			case 1:
				x[j] = 0
			default:
				x[j] = float64(i*dim+j) / 7
			}
		}
		recs[i] = x
	}
	return recs
}

// TestBlockMatchesTransformOne pins the block path to TransformOne bit
// for bit, signed zeros included, on both sides of every block and
// fan-out boundary.
func TestBlockMatchesTransformOne(t *testing.T) {
	for _, par := range []int{1, 4} {
		f, a := blockFitted(par, 0)
		if !f.blocks {
			t.Fatal("an all-BlockOp plan compiled no block form")
		}
		for _, n := range []int{1, 2, 63, 64, 65, blockRecords - 1, blockRecords, blockRecords + 1, 1500} {
			recs := blockRecordsOf(n, 3)
			before := a.blocks.Load()
			got, err := f.TransformBatch(context.Background(), recs)
			if err != nil {
				t.Fatalf("par=%d n=%d: %v", par, n, err)
			}
			if blocks := a.blocks.Load() - before; blocks != int64((n+blockRecords-1)/blockRecords) {
				t.Fatalf("par=%d n=%d: %d blocks ran, want %d", par, n, blocks, (n+blockRecords-1)/blockRecords)
			}
			for i, rec := range recs {
				want := f.TransformOne(rec).([]float64)
				row := got[i].([]float64)
				if len(row) != len(want) || cap(row) != len(row) {
					t.Fatalf("par=%d n=%d record %d: len %d cap %d, want len %d and cap = len", par, n, i, len(row), cap(row), len(want))
				}
				for j := range want {
					if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
						t.Fatalf("par=%d n=%d record %d dim %d: %v vs %v", par, n, i, j, row[j], want[j])
					}
				}
			}
		}
	}
}

// panicOf returns what fn panicked with, or nil.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// TestBlockFallback: a batch the block path cannot take — one record of
// the wrong length, one of the wrong type, or a width an operator
// refuses — runs record by record, so it panics exactly as TransformOne
// does on the bad record, and no block runs.
func TestBlockFallback(t *testing.T) {
	f, a := blockFitted(1, 3)
	for name, c := range map[string]struct {
		recs []any
		bad  int
	}{
		"length":  {append(blockRecordsOf(5, 3), []float64{1, 2}), 5},
		"type":    {append(blockRecordsOf(5, 3), []float32{1, 2, 3}), 5},
		"refused": {blockRecordsOf(6, 4), 0},
	} {
		want := panicOf(func() { f.TransformOne(c.recs[c.bad]) })
		if want == nil {
			t.Fatalf("%s: the bad record did not panic TransformOne", name)
		}
		got := panicOf(func() { _, _ = f.TransformBatch(context.Background(), c.recs) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: TransformBatch panicked with %v, want %v", name, got, want)
		}
	}
	if n := a.blocks.Load(); n != 0 {
		t.Errorf("%d blocks ran on batches the block path must refuse", n)
	}
}

// TestBlockCancel: a context canceled while a block runs stops the batch
// before the next block, sequential or fanned out, with the context's
// error and no partial output.
func TestBlockCancel(t *testing.T) {
	for _, par := range []int{1, 4} {
		f, a := blockFitted(par, 0)
		ctx, cancel := context.WithCancel(context.Background())
		a.onBlock = cancel
		out, err := f.TransformBatch(ctx, blockRecordsOf(4*blockRecords, 2))
		if err != ctx.Err() || out != nil {
			t.Errorf("par=%d: got %d outputs, err %v; want none and %v", par, len(out), err, ctx.Err())
		}
		if n := a.blocks.Load(); n >= 4 {
			t.Errorf("par=%d: all %d blocks ran after the cancel", par, n)
		}
	}
}

// TestBlockConcurrent: one Fitted, many concurrent block batches; under
// -race this is the block plan's immutability check.
func TestBlockConcurrent(t *testing.T) {
	f, _ := blockFitted(2, 0)
	recs := blockRecordsOf(2*blockRecords+3, 3)
	want, err := f.TransformBatch(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				got, err := f.TransformBatch(context.Background(), recs)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					w, g := want[i].([]float64), got[i].([]float64)
					for j := range w {
						if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
							t.Errorf("record %d dim %d diverged", i, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
