package pca

import (
	"math"
	"reflect"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
)

// rowsOf returns the records of c as rows.
func rowsOf(c *engine.Collection) [][]float64 {
	items := c.Collect()
	rows := make([][]float64, len(items))
	for i, it := range items {
		rows[i] = it.([]float64)
	}
	return rows
}

func estimators() []core.EstimatorOp {
	return []core.EstimatorOp{
		&LocalSVD{K: 3},
		&LocalTSVD{K: 3, Seed: 5},
		&DistSVD{K: 3},
		&DistTSVD{K: 3, Seed: 5},
	}
}

// TestRowsFitEqualsBoxedFit: every PCA fitted on FromRows partitions is
// DeepEqual to the one fitted on the same records boxed by FromSlice,
// over partition counts and engine widths.
func TestRowsFitEqualsBoxedFit(t *testing.T) {
	rows := rowsOf(lowRankData(21, 150, 10, 4, 0.2))
	items := make([]any, len(rows))
	for i, r := range rows {
		items[i] = r
	}
	for _, est := range estimators() {
		for _, p := range []int{1, 2, 3, 7} {
			for _, par := range []int{1, 2, 3} {
				ctx := engine.NewContext(par)
				got := est.Fit(ctx, fetchOf(engine.FromRows(rows, p)), nil)
				want := est.Fit(ctx, fetchOf(engine.FromSlice(items, p)), nil)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d partitions, %d workers: the rows fit differs from the boxed one", est.Name(), p, par)
				}
			}
		}
	}
}

// TestFitSkipsEmptyFirstPartition: the dimension probe and the partition
// loops skip an empty leading partition. The local fits, which gather
// every record, equal the fit on the same records in one partition.
func TestFitSkipsEmptyFirstPartition(t *testing.T) {
	items := lowRankData(22, 60, 8, 3, 0.1).Collect()
	data := engine.FromPartitions([][]any{nil, items[:25], nil, items[25:]})
	ctx := engine.NewContext(2)
	for _, est := range estimators() {
		proj := est.Fit(ctx, fetchOf(data), nil).(*Projection)
		if proj.P.Rows != 8 || proj.P.Cols != 3 {
			t.Fatalf("%s: P is %dx%d, want 8x3", est.Name(), proj.P.Rows, proj.P.Cols)
		}
		for _, v := range proj.P.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: P holds %v", est.Name(), v)
			}
		}
		switch est.(type) {
		case *LocalSVD, *LocalTSVD:
			if want := est.Fit(ctx, fetchOf(engine.FromSlice(items, 1)), nil); !reflect.DeepEqual(proj, want) {
				t.Errorf("%s: the fit behind an empty partition differs from the one-partition fit", est.Name())
			}
		}
	}
}
