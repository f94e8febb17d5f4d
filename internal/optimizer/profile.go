// Package optimizer implements KeystoneML's two optimization layers:
//
//   - Operator-level (Section 3): choose each Optimizable node's physical
//     implementation by scoring its CostModels against sampled input
//     statistics and the cluster resource descriptor.
//   - Whole-pipeline (Section 4): execution subsampling to build a
//     pipeline profile, common sub-expression elimination, and automatic
//     materialization — the greedy Algorithm 1 that picks which
//     intermediate outputs to cache under a memory budget, with LRU,
//     rule-based and exact (brute-force) comparators.
package optimizer

import (
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// NodeProfile is the per-node entry of the pipeline profile (Section
// 4.1): estimated full-scale local compute time t(v), output size
// size(v) and iteration weight w(v).
type NodeProfile struct {
	Name      string
	Kind      core.NodeKind
	TimeSec   float64 // t(v): local compute time at full scale
	SizeBytes int64   // size(v): output size at full scale
	Weight    int     // w(v): passes the node makes over its input
}

// Profile is the pipeline profile: extrapolated per-node measurements
// keyed by node ID.
type Profile struct {
	Nodes map[int]*NodeProfile
	// SampleSizes are the record counts |S1| ≤ |S2| of the nested samples
	// the profile was measured on; FullN the dataset size it was
	// extrapolated to.
	SampleSizes [2]int
	FullN       int
	// Dist prices execution behind a remote placement (see
	// core.DistModel) for every cost estimate made from this profile;
	// nil is local execution.
	Dist *core.DistModel
}

// place sets the profile's placement model: d's cluster terms with the
// profiled output sizes as what an estimator's fetch transfers. A nil d
// (local execution) leaves it nil.
func (prof *Profile) place(d *core.DistModel) {
	if d == nil {
		return
	}
	m := *d
	m.OutBytes = make(map[int]int64, len(prof.Nodes))
	for id, np := range prof.Nodes {
		m.OutBytes[id] = np.SizeBytes
	}
	prof.Dist = &m
}

// statsOf derives a node output's DataStats from its sample records, held
// in parts — scalar count per record, nonzero fraction, and bytes —
// extrapolated to fullN records.
func statsOf(fullN, numClasses int, parts ...*engine.Collection) cost.DataStats {
	st := cost.DataStats{N: int64(fullN), K: int64(numClasses), Sparsity: 1}
	var n, scalars, nnz, bytes int64
	for _, c := range parts {
		for i := 0; i < c.NumPartitions(); i++ {
			for _, r := range c.Partition(i) {
				s, z := recordScalars(r)
				scalars += s
				nnz += z
				bytes += core.SizeOf(r)
				n++
			}
		}
	}
	if n == 0 {
		return st
	}
	st.Dim = scalars / n
	if scalars > 0 {
		st.Sparsity = float64(nnz) / float64(scalars)
	}
	st.Bytes = int64(float64(bytes) / float64(n) * float64(fullN))
	return st
}

// recordScalars counts the logical scalar slots and nonzeros of a record.
func recordScalars(r any) (scalars, nnz int64) {
	switch x := r.(type) {
	case []float64:
		return denseScalars(x)
	case *linalg.SparseVector:
		return int64(x.Dim), int64(x.NNZ())
	case [][]float64:
		for _, d := range x {
			s, z := denseScalars(d)
			scalars += s
			nnz += z
		}
		return scalars, nnz
	case *image.Image:
		return denseScalars(x.Pix)
	case map[string]float64:
		return int64(len(x)), int64(len(x))
	case string:
		return int64(len(x)), int64(len(x))
	case []string:
		var n int64
		for _, s := range x {
			n += int64(len(s))
		}
		return n, n
	default:
		return 1, 1
	}
}

// denseScalars counts a dense vector's scalar slots and nonzeros.
func denseScalars(x []float64) (scalars, nnz int64) {
	for _, v := range x {
		if v != 0 {
			nnz++
		}
	}
	return int64(len(x)), nnz
}

// extrapolate fits time(n) = a + b·n through two sample measurements and
// evaluates at fullN, clamping at non-negative. With a single point (the
// nested sample S1 is all of S2) it scales t2 linearly, and when S2 is
// all the data t2 is the full-scale time, whatever t1 is. This mirrors
// the paper's two-sample (512/1024) linear regression, whose runtime
// estimates were within 15% of actuals.
func extrapolate(n1 int, t1 float64, n2 int, t2 float64, fullN int) float64 {
	if n2 == n1 || n2 == fullN {
		if n2 == 0 {
			return 0
		}
		return t2 * float64(fullN) / float64(n2)
	}
	b := (t2 - t1) / float64(n2-n1)
	a := t1 - b*float64(n1)
	est := a + b*float64(fullN)
	if est < 0 {
		est = 0
	}
	return est
}
