package core

import (
	"context"
	"sync"

	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// BlockOp is the optional dense block form of a TransformOp. A block
// holds a run of []float64 records as the columns of a row-major matrix
// — one row per feature — so an operator's kernel runs along the record
// axis: one GEMM per block instead of one GEMV per record.
//
// ApplyBlock must give, for every column, exactly the bits Apply gives
// for that record. TransformBatch uses the block form only when every
// operator of a fitted pipeline has one (see Fitted.TransformBatch).
type BlockOp interface {
	TransformOp
	// BlockRows returns the output feature count for records of in
	// features, or an error when the operator cannot take them.
	BlockRows(in int) (int, error)
	// ApplyBlock writes the output for every column of x into dst,
	// which is BlockRows(x.Rows) x x.Cols, overwriting all of it.
	ApplyBlock(dst, x *linalg.Matrix) error
}

// blockRecords bounds the records in one block. At 128 the speech
// pipeline's 512-feature gather block is 512 KiB; 64, 256 and 512 all
// measured slower on a 1 500-record batch.
const blockRecords = 128

// blockHome places a step's block inside the block of the gather that
// consumes it, at branch position pos, so the branch writes its rows in
// place and the gather copies nothing. gather is -1 for a step with a
// region of its own.
type blockHome struct{ gather, pos int }

// compileBlocks fills each step's block form and home. f.blocks stays
// false — the per-record path only — unless every step is a source, a
// gather or a BlockOp and at least one is a BlockOp.
func (f *Fitted) compileBlocks() {
	anyOp := false
	for i := range f.steps {
		f.steps[i].home = blockHome{gather: -1}
	}
	for i := range f.steps {
		st := &f.steps[i]
		switch st.kind {
		case KindSource:
		case KindGather:
			for pos, d := range st.deps {
				if f.steps[d].home.gather < 0 {
					f.steps[d].home = blockHome{gather: i, pos: pos}
				}
			}
		case KindTransform, KindApplyModel:
			op, ok := st.op.(BlockOp)
			if !ok {
				return
			}
			st.block = op
			anyOp = true
		default:
			return
		}
	}
	f.blocks = anyOp
}

// blockLayout is where each step's block lives in one arena, for one
// input width: rows[i] features starting at arena row off[i].
type blockLayout struct {
	rows, off []int
	total     int
}

// layoutFor returns the block layout for records, or false when the
// batch must take the per-record path: the plan has no block form, a
// record is not a []float64 of the first record's length, or an
// operator refuses that length.
func (f *Fitted) layoutFor(records []any) (blockLayout, bool) {
	if !f.blocks || len(records) == 0 {
		return blockLayout{}, false
	}
	first, ok := records[0].([]float64)
	if !ok {
		return blockLayout{}, false
	}
	for _, rec := range records[1:] {
		if x, ok := rec.([]float64); !ok || len(x) != len(first) {
			return blockLayout{}, false
		}
	}
	l := blockLayout{rows: make([]int, len(f.steps)), off: make([]int, len(f.steps))}
	for i := range f.steps {
		st := &f.steps[i]
		switch st.kind {
		case KindSource:
			l.rows[i] = len(first)
		case KindGather:
			for _, d := range st.deps {
				l.rows[i] += l.rows[d]
			}
		default:
			n, err := st.block.BlockRows(l.rows[st.deps[0]])
			if err != nil {
				return blockLayout{}, false
			}
			l.rows[i] = n
		}
	}
	// Backwards, so every gather is placed before the branches homed in it.
	for i := len(f.steps) - 1; i >= 0; i-- {
		h := f.steps[i].home
		if h.gather < 0 {
			l.off[i] = l.total
			l.total += l.rows[i]
			continue
		}
		l.off[i] = l.off[h.gather]
		for _, d := range f.steps[h.gather].deps[:h.pos] {
			l.off[i] += l.rows[d]
		}
	}
	return l, true
}

// transformBlocks is TransformBatch's block path. Up to Parallelism
// partitions of at least one full block each run concurrently.
func (f *Fitted) transformBlocks(ctx context.Context, l blockLayout, records []any) (out []any, err error) {
	parts := min(f.ctx.Parallelism, (len(records)+blockRecords-1)/blockRecords)
	if parts <= 1 {
		return f.applyBlocks(ctx, l, records)
	}
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(*engine.Canceled); ok {
				out, err = nil, c.Err
				return
			}
			panic(r)
		}
	}()
	var mu sync.Mutex
	res := f.ctx.WithCancellation(ctx).MapPartitions(engine.FromSlice(records, parts), func(part []any) []any {
		o, perr := f.applyBlocks(ctx, l, part)
		if perr != nil {
			mu.Lock()
			if err == nil {
				err = perr
			}
			mu.Unlock()
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	return res.Collect(), nil
}

// applyBlocks runs records through the block plan in blocks of at most
// blockRecords, polling ctx between blocks. One arena holds every
// step's block and is reused block to block; the outputs are rows of
// one backing array, each capped so an append cannot reach its
// neighbour.
func (f *Fitted) applyBlocks(ctx context.Context, l blockLayout, records []any) ([]any, error) {
	n := len(records)
	arena := make([]float64, l.total*min(n, blockRecords))
	views := make([]linalg.Matrix, len(f.steps))
	width := l.rows[f.outIdx]
	backing := make([]float64, n*width)
	out := make([]any, n)
	for lo := 0; lo < n; lo += blockRecords {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+blockRecords, n)
		if err := f.runBlock(l, arena, views, records[lo:hi]); err != nil {
			return nil, err
		}
		res := &views[f.outIdx]
		for r := lo; r < hi; r++ {
			row := backing[r*width : (r+1)*width : (r+1)*width]
			for j := range row {
				row[j] = res.Data[j*res.Cols+r-lo]
			}
			out[r] = row
		}
	}
	return out, nil
}

// runBlock evaluates the plan over one block of records.
func (f *Fitted) runBlock(l blockLayout, arena []float64, views []linalg.Matrix, recs []any) error {
	c := len(recs)
	for i := range views {
		views[i] = linalg.Matrix{Rows: l.rows[i], Cols: c, Data: arena[l.off[i]*c : (l.off[i]+l.rows[i])*c]}
	}
	for i := range f.steps {
		st := &f.steps[i]
		switch st.kind {
		case KindSource:
			data := views[i].Data
			for r, rec := range recs {
				for j, v := range rec.([]float64) {
					data[j*c+r] = v
				}
			}
		case KindGather:
			// Branches homed here already wrote their rows in place.
			row := 0
			for pos, d := range st.deps {
				if f.steps[d].home != (blockHome{gather: i, pos: pos}) {
					copy(views[i].Data[row*c:], views[d].Data)
				}
				row += l.rows[d]
			}
		default:
			if err := st.block.ApplyBlock(&views[i], &views[st.deps[0]]); err != nil {
				return err
			}
		}
	}
	return nil
}
