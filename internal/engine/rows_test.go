package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// rowsAndBoxed returns n one-element rows, and the same rows boxed.
func rowsAndBoxed(n int) ([][]float64, []any) {
	rows := make([][]float64, n)
	items := make([]any, n)
	for i := range rows {
		rows[i] = []float64{float64(i)}
		items[i] = rows[i]
	}
	return rows, items
}

// TestFromRowsCutsFromSliceBoundaries: FromRows partitions exactly as
// FromSlice does, its partitions alias the rows, and every boxed view of
// it (Partition, Collect, Take, Sample, Map) equals FromSlice's.
func TestFromRowsCutsFromSliceBoundaries(t *testing.T) {
	ctx := NewContext(2)
	for _, n := range []int{0, 1, 5, 36, 1000} {
		for _, nParts := range []int{0, 1, 3, n + 1} {
			rows, items := rowsAndBoxed(n)
			r, b := FromRows(rows, nParts), FromSlice(items, nParts)
			at := fmt.Sprintf("n %d, nParts %d", n, nParts)
			if r.NumPartitions() != b.NumPartitions() || r.Count() != b.Count() {
				t.Fatalf("%s: %d partitions of %d rows, FromSlice gives %d of %d", at, r.NumPartitions(), r.Count(), b.NumPartitions(), b.Count())
			}
			for i := 0; i < r.NumPartitions(); i++ {
				if r.Len(i) != b.Len(i) {
					t.Fatalf("%s: partition %d holds %d rows, FromSlice's %d", at, i, r.Len(i), b.Len(i))
				}
				for j := 0; j < r.Len(i); j++ {
					if &r.Row(i, j)[0] != &b.Row(i, j)[0] {
						t.Fatalf("%s: row %d of partition %d is not the input row", at, j, i)
					}
				}
				if rp, bp := r.Partition(i), b.Partition(i); len(rp) != len(bp) || len(rp) > 0 && !reflect.DeepEqual(rp, bp) {
					t.Errorf("%s: Partition(%d) differs", at, i)
				}
			}
			if !reflect.DeepEqual(r.Collect(), b.Collect()) || !reflect.DeepEqual(r.Take(3), b.Take(3)) {
				t.Errorf("%s: Collect or Take differs", at)
			}
			if !reflect.DeepEqual(r.Sample(7).Collect(), b.Sample(7).Collect()) {
				t.Errorf("%s: Sample differs", at)
			}
			id := func(x any) any { return x }
			if !reflect.DeepEqual(ctx.Map(r, id).Collect(), b.Collect()) {
				t.Errorf("%s: Map over the rows differs", at)
			}
		}
	}
}

// TestRowAccessorsAllocateNothing: reading every record through Len and
// Row allocates nothing, on a rows collection and on a boxed one.
func TestRowAccessorsAllocateNothing(t *testing.T) {
	rows, items := rowsAndBoxed(100)
	for name, c := range map[string]*Collection{"rows": FromRows(rows, 3), "boxed": FromSlice(items, 3)} {
		var sum float64
		read := func() {
			for i := 0; i < c.NumPartitions(); i++ {
				for j := 0; j < c.Len(i); j++ {
					sum += c.Row(i, j)[0]
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
			t.Errorf("%s: reading 100 rows made %v allocations, want 0", name, allocs)
		}
	}
}

// TestRowOfBoxedNonRowIsWorkerPanic: Row on a boxed record that is not a
// []float64 panics inside the partition loop, which raises the engine's
// worker panic on the caller's goroutine.
func TestRowOfBoxedNonRowIsWorkerPanic(t *testing.T) {
	c := FromPartitions([][]any{{[]float64{1}}, {[]float64{2}, "not a row"}})
	defer func() {
		if s, ok := recover().(string); !ok || !strings.Contains(s, "engine: worker panic") {
			t.Errorf("panicked with %v, want the engine's worker panic", s)
		}
	}()
	NewContext(2).EachPartition(c, func(i int) {
		for j := 0; j < c.Len(i); j++ {
			_ = c.Row(i, j)
		}
	})
}

// TestTreeCombineIsAggregateOrder: TreeCombine over per-partition
// results combines in Aggregate's order, for every partition count.
func TestTreeCombineIsAggregateOrder(t *testing.T) {
	ctx := NewContext(3)
	for n := 1; n <= 9; n++ {
		c := FromSlice(ints(n), n)
		want := ctx.Aggregate(c,
			func() any { return "" },
			func(acc, item any) any { return fmt.Sprint(acc, item) },
			func(a, b any) any { return "(" + a.(string) + " " + b.(string) + ")" })
		partials := make([]string, n)
		ctx.EachPartition(c, func(i int) { partials[i] = fmt.Sprint(c.Partition(i)[0]) })
		got := TreeCombine(partials, func(a, b string) string { return "(" + a + " " + b + ")" })
		if got != want {
			t.Errorf("%d partitions: TreeCombine gives %s, Aggregate %s", n, got, want)
		}
	}
}
