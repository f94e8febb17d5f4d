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
// are the unit of parallelism, exactly as in Spark RDDs.
type Collection struct {
	parts [][]any
}

// Partition returns partition i (shared, do not mutate).
func (c *Collection) Partition(i int) []any { return c.parts[i] }

// NumPartitions returns the partition count.
func (c *Collection) NumPartitions() int { return len(c.parts) }

// Count returns the total number of records.
func (c *Collection) Count() int {
	n := 0
	for _, p := range c.parts {
		n += len(p)
	}
	return n
}

// Collect concatenates all partitions into one slice (a copy).
func (c *Collection) Collect() []any {
	out := make([]any, 0, c.Count())
	for _, p := range c.parts {
		out = append(out, p...)
	}
	return out
}

// Take returns up to n records from the head of the collection.
func (c *Collection) Take(n int) []any {
	out := make([]any, 0, n)
	for _, p := range c.parts {
		for _, item := range p {
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
	if nParts < 1 || len(items) == 0 {
		nParts = 1
	}
	if len(items) > 0 && nParts > len(items) {
		nParts = len(items)
	}
	parts := make([][]any, nParts)
	if len(items) == 0 {
		return &Collection{parts: parts}
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
	return &Collection{parts: parts}
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

// forEachPartition runs f(i, partition) for every partition with bounded
// parallelism, propagating the first panic as a wrapped error-panic so
// failures in worker goroutines are not lost.
func (ctx *Context) forEachPartition(c *Collection, f func(i int, part []any)) {
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
			f(i, c.parts[i])
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
	ctx.forEachPartition(c, func(i int, part []any) {
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
	ctx.forEachPartition(c, func(i int, part []any) {
		out[i] = f(part)
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
	ctx.forEachPartition(a, func(i int, part []any) {
		other := b.parts[i]
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
// combines the per-partition results with combOp in a tree pattern (two-at-
// a-time), matching Spark's treeAggregate used by the distributed solvers.
func (ctx *Context) Aggregate(c *Collection, zero func() any, seqOp func(acc, item any) any, combOp func(a, b any) any) any {
	partials := make([]any, c.NumPartitions())
	ctx.forEachPartition(c, func(i int, part []any) {
		acc := zero()
		for _, item := range part {
			acc = seqOp(acc, item)
		}
		partials[i] = acc
	})
	// Tree reduction over the partials.
	for len(partials) > 1 {
		next := make([]any, 0, (len(partials)+1)/2)
		for i := 0; i < len(partials); i += 2 {
			if i+1 < len(partials) {
				next = append(next, combOp(partials[i], partials[i+1]))
			} else {
				next = append(next, partials[i])
			}
		}
		partials = next
	}
	if len(partials) == 0 {
		return zero()
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
	for _, p := range c.parts {
		for _, item := range p {
			if seen%stride == 0 && len(picked) < n {
				picked = append(picked, item)
			}
			seen++
		}
	}
	return FromSlice(picked, min(len(picked), c.NumPartitions()))
}
