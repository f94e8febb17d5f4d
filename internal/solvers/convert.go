package solvers

import (
	"fmt"

	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// partPair is one partition of paired features and labels, converted to
// matrix form (features either dense or as sparse rows). A dense partition
// is packed as X with Xᵀ beside it, so both products of a solver pass
// run their inner loop over a long dimension (see scoresT).
type partPair struct {
	src    []any                  // the feature partition this pair was packed from
	dense  *linalg.Matrix         // X, rows x d; nil when input is sparse
	denseT *linalg.Matrix         // Xᵀ, d x rows
	sparse []*linalg.SparseVector // nil when input is dense
	labels *linalg.Matrix
}

func (p *partPair) rows() int {
	if p.dense != nil {
		return p.dense.Rows
	}
	return len(p.sparse)
}

// pairPartitions zips a feature collection and label collection partition-
// wise into matrix pairs. Data and labels must share partition structure
// (they do by construction: labels flow through the DAG label source with
// the same partitioning as the training input). prev is the previous
// pass's result (nil on the first): collections are immutable, so a
// partition a fetch returns unchanged — same backing slice — keeps its
// packed pair, and a cached input is packed once per Fit while a
// recomputed or shuffled one is packed again every pass.
func pairPartitions(prev []partPair, data, labels *engine.Collection) []partPair {
	if data.NumPartitions() != labels.NumPartitions() {
		panic(fmt.Sprintf("solvers: data has %d partitions, labels %d", data.NumPartitions(), labels.NumPartitions()))
	}
	pairs := make([]partPair, data.NumPartitions())
	for i := range pairs {
		feat := data.Partition(i)
		lab := labels.Partition(i)
		if len(feat) != len(lab) {
			panic(fmt.Sprintf("solvers: partition %d has %d records but %d labels", i, len(feat), len(lab)))
		}
		if i < len(prev) && len(feat) > 0 && len(feat) == len(prev[i].src) && &feat[0] == &prev[i].src[0] {
			pairs[i] = prev[i]
			continue
		}
		pairs[i] = makePair(feat, lab)
	}
	return pairs
}

func makePair(feat, lab []any) partPair {
	p := partPair{src: feat}
	if len(feat) == 0 {
		p.labels = linalg.NewMatrix(0, 0)
		return p
	}
	p.labels = labelMatrix(lab)
	switch feat[0].(type) {
	case []float64:
		rows := make([][]float64, len(feat))
		for i, r := range feat {
			rows[i] = r.([]float64)
		}
		p.dense = linalg.NewMatrixFrom(rows)
		p.denseT = p.dense.T()
	case *linalg.SparseVector:
		p.sparse = make([]*linalg.SparseVector, len(feat))
		for i, r := range feat {
			p.sparse[i] = r.(*linalg.SparseVector)
		}
	default:
		panic(fmt.Sprintf("solvers: unsupported feature record type %T", feat[0]))
	}
	return p
}

func labelMatrix(lab []any) *linalg.Matrix {
	rows := make([][]float64, len(lab))
	for i, r := range lab {
		y, ok := r.([]float64)
		if !ok {
			panic(fmt.Sprintf("solvers: labels must be []float64 vectors, got %T", r))
		}
		rows[i] = y
	}
	return linalg.NewMatrixFrom(rows)
}

// dims inspects paired partitions and returns (n, d, k).
func dims(pairs []partPair) (n, d, k int) {
	for _, p := range pairs {
		n += p.rows()
		if p.dense != nil && p.dense.Rows > 0 {
			d = p.dense.Cols
			k = p.labels.Cols
		}
		if p.sparse != nil && len(p.sparse) > 0 {
			d = p.sparse[0].Dim
			k = p.labels.Cols
		}
	}
	return n, d, k
}

// scoresT writes a dense partition's scores, transposed, into pt (k x
// rows): Pᵀ = Wᵀ·Xᵀ with wt holding Wᵀ (k x d). Transposed, the kernel's
// inner loop runs over the partition's rows rather than the k classes, and
// every score still accumulates over ascending feature index with one
// rounded add per product — the order of scoreRow, so the bits match it.
func (p *partPair) scoresT(pt, wt []float64, k int) {
	clear(pt)
	x := p.denseT
	linalg.Choose(linalg.OpGemm, k, x.Rows, x.Cols).Mul(pt, wt, x.Data, k, x.Rows, x.Cols)
}

// squaredLoss computes ||A W - B||_F^2 / n over the paired partitions.
func squaredLoss(pairs []partPair, w *linalg.Matrix) float64 {
	var total float64
	var n int
	k := w.Cols
	wt := w.T().Data
	pred := make([]float64, k)
	var pt []float64
	for pi := range pairs {
		p := &pairs[pi]
		rows := p.rows()
		if p.dense != nil {
			pt = grow(pt, k*rows)
			p.scoresT(pt, wt, k)
		}
		for r := 0; r < rows; r++ {
			if p.dense != nil {
				for j := range pred {
					pred[j] = pt[j*rows+r]
				}
			} else {
				scoreRow(p, r, w, pred)
			}
			y := p.labels.Row(r)
			for j := 0; j < k; j++ {
				diff := pred[j] - y[j]
				total += diff * diff
			}
		}
		n += rows
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short; contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// scoreRow writes W applied to record r of partition p into out.
func scoreRow(p *partPair, r int, w *linalg.Matrix, out []float64) {
	for j := range out {
		out[j] = 0
	}
	k := w.Cols
	if p.dense != nil {
		x := p.dense.Row(r)
		for i, xi := range x {
			if xi == 0 {
				continue
			}
			row := w.Row(i)
			for j := 0; j < k; j++ {
				out[j] += xi * row[j]
			}
		}
		return
	}
	sv := p.sparse[r]
	for pos, i := range sv.Idx {
		xi := sv.Val[pos]
		row := w.Row(i)
		for j := 0; j < k; j++ {
			out[j] += xi * row[j]
		}
	}
}
