package gmm

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// modelDigest is an FNV-64a hash of the Float64bits of a model's
// weights, means and variances, in that order.
func modelDigest(m *Model) string {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range [][]float64{m.Weights, m.Means.Data, m.Vars.Data} {
		for _, v := range vs {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRows returns blobs' descriptors as rows.
func goldenRows() [][]float64 {
	data, _ := blobs(5, 203, 6, 3)
	items := data.Collect()
	rows := make([][]float64, len(items))
	for i, it := range items {
		rows[i] = it.([]float64)
	}
	return rows
}

// boxed returns rows as boxed records.
func boxed(rows [][]float64) []any {
	items := make([]any, len(rows))
	for i, r := range rows {
		items[i] = r
	}
	return items
}

// emptyFirst partitions rows into three uneven partitions behind an
// empty one.
func emptyFirst(rows [][]float64) *engine.Collection {
	items := boxed(rows)
	return engine.FromPartitions([][]any{nil, items[:50], items[50:51], items[51:]})
}

// TestGMMGoldenBits pins the model fitted on four FromSlice partitions
// and on an input whose first partition is empty, at one and three
// engine workers, to digests recorded while descriptors were still
// boxed and the E-step ran through Aggregate.
func TestGMMGoldenBits(t *testing.T) {
	rows := goldenRows()
	for _, tc := range []struct {
		name string
		data *engine.Collection
		want string
	}{
		{"FromSlice", engine.FromSlice(boxed(rows), 4), "9495170ff0be5ad9"},
		{"empty first partition", emptyFirst(rows), "b7dac592d50649a8"},
	} {
		for _, par := range []int{1, 3} {
			m := (&GMM{K: 4, Iters: 6, Seed: 3}).Fit(engine.NewContext(par), fetchOf(tc.data), nil).(*PosteriorTransform).Model
			if got := modelDigest(m); got != tc.want {
				t.Errorf("%s, %d workers: model digest %s, want %s", tc.name, par, got, tc.want)
			}
		}
	}
}

// TestGMMRowsEqualsBoxed: a model fitted on FromRows partitions is
// DeepEqual to the one fitted on the same records boxed by FromSlice,
// over partition counts and engine widths.
func TestGMMRowsEqualsBoxed(t *testing.T) {
	rows := goldenRows()
	for _, p := range []int{1, 2, 3, 7} {
		for _, par := range []int{1, 2, 3} {
			ctx := engine.NewContext(par)
			fit := func(c *engine.Collection) *Model {
				return (&GMM{K: 4, Iters: 4, Seed: 3}).Fit(ctx, fetchOf(c), nil).(*PosteriorTransform).Model
			}
			if got, want := fit(engine.FromRows(rows, p)), fit(engine.FromSlice(boxed(rows), p)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d partitions, %d workers: the model fitted on rows differs from the boxed one", p, par)
			}
		}
	}
}

// TestEMPassAllocsPerPartition: one EM pass over a rows collection
// allocates per partition (its accumulators and its worker) and per
// pass (the M step's model), never per descriptor: a hundredfold larger
// input costs the same allocations. A pass measures 14 + 9 per
// partition (41 here); the budget leaves room for the runtime's own.
func TestEMPassAllocsPerPartition(t *testing.T) {
	const parts = 3
	ctx := engine.NewContext(1)
	perPass := func(n int) float64 {
		rng := linalg.NewRNG(4)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = rng.GaussianVector(8)
		}
		data := engine.FromRows(rows, parts)
		fit := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() { (&GMM{K: 4, Iters: iters, Seed: 1}).Fit(ctx, fetchOf(data), nil) })
		}
		return fit(3) - fit(2)
	}
	small, large := perPass(60), perPass(6000)
	const budget = 16 + 10*parts
	if small > budget || large > budget {
		t.Errorf("one EM pass: %v allocations over 60 descriptors, %v over 6000; budget %d", small, large, budget)
	}
}
