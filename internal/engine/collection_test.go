package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestFromSlicePartitioning(t *testing.T) {
	c := FromSlice(ints(10), 3)
	if c.NumPartitions() != 3 {
		t.Fatalf("partitions = %d, want 3", c.NumPartitions())
	}
	if c.Count() != 10 {
		t.Fatalf("count = %d, want 10", c.Count())
	}
	// Partition sizes must differ by at most one.
	sizes := []int{len(c.Partition(0)), len(c.Partition(1)), len(c.Partition(2))}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("unbalanced partition sizes %v", sizes)
		}
	}
	// Order preserved.
	got := c.Collect()
	for i, v := range got {
		if v.(int) != i {
			t.Fatalf("Collect[%d] = %v, want %d", i, v, i)
		}
	}
}

func TestFromSliceEdgeCases(t *testing.T) {
	empty := FromSlice(nil, 4)
	if empty.NumPartitions() != 1 || empty.Count() != 0 {
		t.Errorf("empty: parts=%d count=%d", empty.NumPartitions(), empty.Count())
	}
	// More partitions than items clamps.
	c := FromSlice(ints(2), 10)
	if c.NumPartitions() != 2 {
		t.Errorf("clamped partitions = %d, want 2", c.NumPartitions())
	}
	// Non-positive partition count defaults to 1.
	c = FromSlice(ints(5), 0)
	if c.NumPartitions() != 1 {
		t.Errorf("zero-part partitions = %d, want 1", c.NumPartitions())
	}
}

func TestMapPreservesOrderAndPartitioning(t *testing.T) {
	ctx := NewContext(4)
	c := FromSlice(ints(100), 7)
	doubled := ctx.Map(c, func(x any) any { return x.(int) * 2 })
	if doubled.NumPartitions() != 7 {
		t.Errorf("partitions changed: %d", doubled.NumPartitions())
	}
	for i, v := range doubled.Collect() {
		if v.(int) != 2*i {
			t.Fatalf("Map[%d] = %v, want %d", i, v, 2*i)
		}
	}
}

func TestMapRunsInParallelBounded(t *testing.T) {
	ctx := NewContext(2)
	var inFlight, maxInFlight int64
	c := FromSlice(ints(16), 16)
	ctx.MapPartitions(c, func(p []any) []any {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&maxInFlight)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInFlight, old, cur) {
				break
			}
		}
		atomic.AddInt64(&inFlight, -1)
		return p
	})
	if got := atomic.LoadInt64(&maxInFlight); got > 2 {
		t.Errorf("max in-flight partitions = %d, want <= 2", got)
	}
}

func TestAggregateTreeSum(t *testing.T) {
	ctx := NewContext(4)
	c := FromSlice(ints(1000), 13)
	sum := ctx.Aggregate(c,
		func() any { return 0 },
		func(acc, item any) any { return acc.(int) + item.(int) },
		func(a, b any) any { return a.(int) + b.(int) },
	)
	if sum.(int) != 999*1000/2 {
		t.Errorf("sum = %v, want %d", sum, 999*1000/2)
	}
}

func TestAggregateEmpty(t *testing.T) {
	ctx := NewContext(2)
	c := FromSlice(nil, 1)
	sum := ctx.Aggregate(c,
		func() any { return 42 },
		func(acc, item any) any { return acc },
		func(a, b any) any { return a },
	)
	if sum.(int) != 42 {
		t.Errorf("empty aggregate = %v, want zero value 42", sum)
	}
}

func TestZip(t *testing.T) {
	ctx := NewContext(4)
	a := FromSlice(ints(10), 3)
	b := ctx.Map(a, func(x any) any { return x.(int) * 10 })
	z := ctx.Zip(a, b, func(x, y any) any { return x.(int) + y.(int) })
	for i, v := range z.Collect() {
		if v.(int) != 11*i {
			t.Fatalf("Zip[%d] = %v, want %d", i, v, 11*i)
		}
	}
}

func TestZipMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on partition mismatch")
		}
	}()
	ctx := NewContext(1)
	ctx.Zip(FromSlice(ints(4), 2), FromSlice(ints(4), 4), func(x, y any) any { return nil })
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected worker panic to propagate")
		}
	}()
	ctx := NewContext(2)
	ctx.Map(FromSlice(ints(4), 2), func(x any) any {
		if x.(int) == 3 {
			panic("boom")
		}
		return x
	})
}

func TestSample(t *testing.T) {
	c := FromSlice(ints(1000), 8)
	s := c.Sample(100)
	if got := s.Count(); got < 90 || got > 110 {
		t.Errorf("sample size = %d, want ~100", got)
	}
	// Deterministic.
	s2 := c.Sample(100)
	a, b := s.Collect(), s2.Collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling is not deterministic")
		}
	}
	// Oversampling returns the full collection.
	if c.Sample(5000).Count() != 1000 {
		t.Error("oversample did not return all records")
	}
}

func TestTake(t *testing.T) {
	c := FromSlice(ints(10), 4)
	got := c.Take(3)
	if len(got) != 3 || got[0].(int) != 0 || got[2].(int) != 2 {
		t.Errorf("Take(3) = %v", got)
	}
	if len(c.Take(100)) != 10 {
		t.Error("Take beyond size should return all")
	}
}

// Property (testing/quick): Map(identity) == identity regardless of
// partition count and size.
func TestMapIdentityProperty(t *testing.T) {
	ctx := NewContext(3)
	f := func(n uint8, parts uint8) bool {
		items := ints(int(n))
		c := FromSlice(items, int(parts))
		got := ctx.Map(c, func(x any) any { return x }).Collect()
		if len(got) != len(items) {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromPartitionsEdgeCases(t *testing.T) {
	// No partitions at all: normalized to one empty partition so
	// downstream code (executors, dist fetch reassembly) never divides
	// by or iterates over zero partitions.
	empty := FromPartitions(nil)
	if empty.NumPartitions() != 1 || empty.Count() != 0 {
		t.Errorf("nil parts: parts=%d count=%d, want 1/0", empty.NumPartitions(), empty.Count())
	}
	if got := empty.Collect(); len(got) != 0 {
		t.Errorf("nil parts Collect = %v, want empty", got)
	}

	// A mix of nil and empty inner partitions is preserved as-is (the
	// dist layer round-trips partition structure, so normalizing here
	// would silently change lineage) and every primitive tolerates it.
	ctx := NewContext(2)
	c := FromPartitions([][]any{nil, {1, 2}, {}, {3}})
	if c.NumPartitions() != 4 || c.Count() != 3 {
		t.Fatalf("mixed parts: parts=%d count=%d, want 4/3", c.NumPartitions(), c.Count())
	}
	doubled := ctx.Map(c, func(x any) any { return x.(int) * 2 })
	if doubled.NumPartitions() != 4 {
		t.Errorf("Map changed partitioning: %d", doubled.NumPartitions())
	}
	if got := doubled.Collect(); len(got) != 3 || got[0].(int) != 2 || got[2].(int) != 6 {
		t.Errorf("Map over mixed parts = %v", got)
	}
	sum := ctx.Aggregate(c,
		func() any { return 0 },
		func(acc, item any) any { return acc.(int) + item.(int) },
		func(a, b any) any { return a.(int) + b.(int) },
	)
	if sum.(int) != 6 {
		t.Errorf("Aggregate over mixed parts = %v, want 6", sum)
	}
	if got := c.Take(2); len(got) != 2 || got[0].(int) != 1 {
		t.Errorf("Take over mixed parts = %v", got)
	}
}

func TestSingleRecordHighPartitionCount(t *testing.T) {
	// A single-record collection requested at an absurd partition count
	// (keystone's WithPartitions forwards straight to FromSlice) clamps
	// to one partition rather than manufacturing empty shards.
	c := FromSlice(ints(1), 1024)
	if c.NumPartitions() != 1 {
		t.Fatalf("partitions = %d, want 1", c.NumPartitions())
	}
	if c.Count() != 1 || c.Collect()[0].(int) != 0 {
		t.Fatalf("record lost: count=%d", c.Count())
	}
	// Everything downstream still works on the degenerate shape.
	ctx := NewContext(4)
	out := ctx.MapPartitions(c, func(p []any) []any { return append([]any{}, p...) })
	if out.Count() != 1 {
		t.Errorf("MapPartitions count = %d, want 1", out.Count())
	}
	if s := c.Sample(10); s.Count() != 1 {
		t.Errorf("oversample of single record = %d, want 1", s.Count())
	}
}

func TestCancellationMidAggregate(t *testing.T) {
	// Cancel from inside a partition fold: the typed *Canceled sentinel
	// must surface (not a generic worker panic), and partitions not yet
	// dispatched must be skipped.
	cctx, cancel := context.WithCancel(context.Background())
	ctx := NewContext(1).WithCancellation(cctx)
	c := FromSlice(ints(64), 16)
	var folded int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected cancellation panic from Aggregate")
		}
		canceled, ok := r.(*Canceled)
		if !ok {
			t.Fatalf("recovered %v, want *Canceled", r)
		}
		if !errors.Is(canceled, context.Canceled) {
			t.Errorf("Unwrap chain does not reach context.Canceled: %v", canceled)
		}
		// Parallelism 1 and cancellation checked between dispatches:
		// after the cancel lands at most the in-flight partition and one
		// more can fold.
		if n := atomic.LoadInt64(&folded); n > 8 {
			t.Errorf("folded %d records after cancel, want early stop", n)
		}
	}()
	ctx.Aggregate(c,
		func() any { return 0 },
		func(acc, item any) any {
			if item.(int) == 2 {
				cancel()
				ctx.CheckCanceled()
			}
			atomic.AddInt64(&folded, 1)
			return acc.(int) + item.(int)
		},
		func(a, b any) any { return a.(int) + b.(int) },
	)
	t.Fatal("Aggregate returned despite cancellation")
}
