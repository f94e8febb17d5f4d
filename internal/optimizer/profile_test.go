package optimizer

import (
	"testing"

	"keystoneml/internal/image"
)

// TestRecordScalars: a descriptor set counts as the sum of its rows'
// scalars and nonzeros, and counting any record allocates nothing.
func TestRecordScalars(t *testing.T) {
	im := image.New(3, 2, 2)
	im.Pix[4], im.Pix[7] = 1, -2
	for _, c := range []struct {
		name         string
		rec          any
		scalars, nnz int64
	}{
		{"vector", []float64{0, 1, 0, 2.5}, 4, 2},
		{"descriptor set", [][]float64{{0, 1, 0}, {}, nil, {3, 0, 0, 4, 5}}, 8, 4},
		{"empty set", [][]float64{}, 0, 0},
		{"image", im, 12, 2},
		{"string", "four", 4, 4},
	} {
		s, z := recordScalars(c.rec)
		if s != c.scalars || z != c.nnz {
			t.Errorf("%s: (%d, %d), want (%d, %d)", c.name, s, z, c.scalars, c.nnz)
		}
		if set, ok := c.rec.([][]float64); ok {
			var rs, rz int64
			for _, row := range set {
				s, z := recordScalars(row)
				rs, rz = rs+s, rz+z
			}
			if s != rs || z != rz {
				t.Errorf("%s: (%d, %d), but its rows sum to (%d, %d)", c.name, s, z, rs, rz)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { recordScalars(c.rec) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations, want 0", c.name, allocs)
		}
	}
}
