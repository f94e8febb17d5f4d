// Package engine is the distributed-dataflow substrate KeystoneML-Go runs
// on, standing in for Apache Spark. It provides partitioned collections
// executed by a pool of goroutine "nodes", the aggregate patterns the ML
// operators need (map, mapPartitions, treeAggregate, sample), and the one
// node-output cache: a cache manager with single-flight GetOrCompute and
// pluggable policies (pinned set, LRU with admission control,
// estimator-only) that reproduces the memory-management behaviour Section
// 4.3 of the paper depends on.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Collection is an immutable partitioned collection of records. Partitions
// are the unit of parallelism, exactly as in Spark RDDs. A collection
// holds its records boxed ([]any partitions) or, when built by FromRows,
// as dense rows: []float64 records partitioned over one header slice,
// which a partition loop reads in place through Len and Row and which is
// boxed only for a caller asking for []any records.
type Collection struct {
	parts [][]any
	rows  [][][]float64 // non-nil exactly for a FromRows collection
}

// Partition returns partition i (shared, do not mutate). A rows
// collection boxes the partition's rows into a fresh slice.
func (c *Collection) Partition(i int) []any {
	if c.rows != nil {
		return boxRows(c.rows[i])
	}
	return c.parts[i]
}

func boxRows(rows [][]float64) []any {
	out := make([]any, len(rows))
	for j, r := range rows {
		out[j] = r
	}
	return out
}

// NumPartitions returns the partition count.
func (c *Collection) NumPartitions() int {
	if c.rows != nil {
		return len(c.rows)
	}
	return len(c.parts)
}

// Len returns the record count of partition i without boxing anything.
func (c *Collection) Len(i int) int {
	if c.rows != nil {
		return len(c.rows[i])
	}
	return len(c.parts[i])
}

// Row returns record j of partition i as a dense row: in place for a rows
// collection, type-asserted for a boxed one, so a record that is not a
// []float64 panics where it is read — inside the partition loop that
// reads it, which surfaces it as the engine's worker panic.
func (c *Collection) Row(i, j int) []float64 {
	if c.rows != nil {
		return c.rows[i][j]
	}
	return c.parts[i][j].([]float64)
}

// Count returns the total number of records.
func (c *Collection) Count() int {
	n := 0
	for i := 0; i < c.NumPartitions(); i++ {
		n += c.Len(i)
	}
	return n
}

// Collect concatenates all partitions into one slice (a copy).
func (c *Collection) Collect() []any {
	out := make([]any, 0, c.Count())
	for i := 0; i < c.NumPartitions(); i++ {
		out = append(out, c.Partition(i)...)
	}
	return out
}

// Take returns up to n records from the head of the collection.
func (c *Collection) Take(n int) []any {
	out := make([]any, 0, n)
	for i := 0; i < c.NumPartitions(); i++ {
		for _, item := range c.Partition(i) {
			if len(out) == n {
				return out
			}
			out = append(out, item)
		}
	}
	return out
}

// FromSlice partitions items into nParts roughly equal contiguous chunks.
// nParts is clamped to [1, len(items)] (an empty input yields one empty
// partition so downstream code never sees zero partitions).
func FromSlice(items []any, nParts int) *Collection {
	return &Collection{parts: split(items, nParts)}
}

// FromRows partitions dense rows exactly as FromSlice partitions records
// — the same clamping and the same boundaries, which a per-partition
// reduction's bits depend on — without boxing them: the partitions are
// windows of rows, and the rows themselves are not copied.
func FromRows(rows [][]float64, nParts int) *Collection {
	return &Collection{rows: split(rows, nParts)}
}

// split cuts items into nParts contiguous chunks whose sizes differ by at
// most one, the larger first; see FromSlice for the clamping.
func split[T any](items []T, nParts int) [][]T {
	if nParts < 1 || len(items) == 0 {
		nParts = 1
	}
	if len(items) > 0 && nParts > len(items) {
		nParts = len(items)
	}
	parts := make([][]T, nParts)
	if len(items) == 0 {
		return parts
	}
	base := len(items) / nParts
	rem := len(items) % nParts
	off := 0
	for i := 0; i < nParts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		parts[i] = items[off : off+sz]
		off += sz
	}
	return parts
}

// FromPartitions wraps pre-partitioned data without copying.
func FromPartitions(parts [][]any) *Collection {
	if len(parts) == 0 {
		parts = [][]any{nil}
	}
	return &Collection{parts: parts}
}

// Context executes collection operations on a bounded worker pool. Workers
// model cluster nodes: Parallelism bounds how many partitions execute
// concurrently.
type Context struct {
	Parallelism int

	// cancel, when non-nil, is the context.Context bound by
	// WithCancellation; collection operations poll it between partition
	// dispatches and abort with a *Canceled panic once it is done.
	cancel context.Context
}

// NewContext returns a Context with the given parallelism; zero or
// negative values default to the number of CPUs.
func NewContext(parallelism int) *Context {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	return &Context{Parallelism: parallelism}
}

// EachPartition runs f(i) for every partition i of c with bounded
// parallelism: the one partition loop every collection operation runs on.
// A canceled context stops the dispatch and raises *Canceled; the first
// panic in f reaches the caller as a wrapped error-panic, so failures in
// worker goroutines are not lost. f reads partition i (through Len and
// Row, or Partition) and writes its result to slot i of a slice of the
// caller's.
func (ctx *Context) EachPartition(c *Collection, f func(i int)) {
	ctx.CheckCanceled()
	n := c.NumPartitions()
	sem := make(chan struct{}, ctx.Parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstPanic any
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			// Stop dispatching further partitions; already-running ones
			// drain, then the coordinator raises the cancellation.
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstPanic == nil {
						firstPanic = r
					}
					mu.Unlock()
				}
			}()
			f(i)
		}(i)
	}
	wg.Wait()
	// A genuine worker panic outranks concurrent cancellation — masking
	// a real bug as "canceled" would hide it from every log line.
	if firstPanic != nil {
		if c, ok := firstPanic.(*Canceled); ok {
			panic(c) // keep the typed sentinel so RunContext can recover it
		}
		panic(fmt.Sprintf("engine: worker panic: %v", firstPanic))
	}
	ctx.CheckCanceled()
}

// Map applies f to every record, preserving partitioning.
func (ctx *Context) Map(c *Collection, f func(any) any) *Collection {
	out := make([][]any, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		part := c.Partition(i)
		res := make([]any, len(part))
		for j, item := range part {
			res[j] = f(item)
		}
		out[i] = res
	})
	return &Collection{parts: out}
}

// MapPartitions applies f to each whole partition, enabling per-partition
// state (e.g. converting a partition of rows into one matrix).
func (ctx *Context) MapPartitions(c *Collection, f func([]any) []any) *Collection {
	out := make([][]any, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		out[i] = f(c.Partition(i))
	})
	return &Collection{parts: out}
}

// Zip pairs two collections with identical partitioning element-wise using
// f. It panics if partition structures differ, since zipping misaligned
// lineages is a logic error.
func (ctx *Context) Zip(a, b *Collection, f func(x, y any) any) *Collection {
	if a.NumPartitions() != b.NumPartitions() {
		panic(fmt.Sprintf("engine: Zip partition count mismatch %d vs %d", a.NumPartitions(), b.NumPartitions()))
	}
	out := make([][]any, a.NumPartitions())
	ctx.EachPartition(a, func(i int) {
		part, other := a.Partition(i), b.Partition(i)
		if len(other) != len(part) {
			panic(fmt.Sprintf("engine: Zip partition %d length mismatch %d vs %d", i, len(part), len(other)))
		}
		res := make([]any, len(part))
		for j, item := range part {
			res[j] = f(item, other[j])
		}
		out[i] = res
	})
	return &Collection{parts: out}
}

// Aggregate folds every partition with seqOp starting from zero() and then
// combines the per-partition results with TreeCombine, matching Spark's
// treeAggregate used by the distributed solvers.
func (ctx *Context) Aggregate(c *Collection, zero func() any, seqOp func(acc, item any) any, combOp func(a, b any) any) any {
	partials := make([]any, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		acc := zero()
		for _, item := range c.Partition(i) {
			acc = seqOp(acc, item)
		}
		partials[i] = acc
	})
	if len(partials) == 0 {
		return zero()
	}
	return TreeCombine(partials, combOp)
}

// TreeCombine combines per-partition results two at a time, level by
// level — (0,1), (2,3), … with an odd last one carried up — and returns
// the root: Aggregate's combine order, for a partition loop that keeps
// typed partials. It overwrites partials, which must not be empty.
func TreeCombine[T any](partials []T, combOp func(a, b T) T) T {
	for n := len(partials); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				partials[i/2] = combOp(partials[i], partials[i+1])
			} else {
				partials[i/2] = partials[i]
			}
		}
	}
	return partials[0]
}

// Sample returns a deterministic subsample of approximately n records,
// taking an even stride through every partition. The optimizer's execution
// subsampling (Section 4.1) uses this to estimate dataset statistics.
func (c *Collection) Sample(n int) *Collection {
	total := c.Count()
	if n <= 0 || total == 0 {
		return FromSlice(nil, 1)
	}
	if n >= total {
		return c
	}
	stride := total / n
	if stride < 1 {
		stride = 1
	}
	var picked []any
	seen := 0
	for i := 0; i < c.NumPartitions(); i++ {
		for _, item := range c.Partition(i) {
			if seen%stride == 0 && len(picked) < n {
				picked = append(picked, item)
			}
			seen++
		}
	}
	return FromSlice(picked, min(len(picked), c.NumPartitions()))
}
