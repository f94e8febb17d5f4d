// Package kernels holds the raw compute kernels behind the linalg
// "blocked" backend: packed register-blocked GEMM,
// strided GEMV/rank-1 panel kernels for the QR/SVD hot loops, unrolled
// vector primitives, and a worker pool that fans tile work across cores
// without oversubscribing the process.
//
// Every kernel preserves the per-element accumulation order of the
// straight-line reference implementations in package linalg (ascending
// reduction index, one accumulator per output element), so on finite
// inputs the blocked backend produces bit-identical float64 results to
// the reference backend regardless of blocking factors or how many
// workers participate. The only documented divergence is signed zeros
// (the reference skips zero multiplicands where these kernels multiply
// through, so a +0 may replace a -0; the two compare equal under ==).
// See the package linalg tolerance table.
package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// active counts helper goroutines currently running kernel tiles across
// the whole process. The budget is GOMAXPROCS: a kernel invoked from
// inside an already-parallel caller (the DAG executor's worker pool, a
// per-partition solver goroutine) finds the budget consumed and simply
// runs on the calling goroutine, so nested parallelism degrades to
// serial instead of oversubscribing the scheduler.
var active atomic.Int64

// budget overrides the helper budget when positive; zero means derive
// it from GOMAXPROCS. Set via SetHelperBudget.
var budget atomic.Int64

// SetHelperBudget bounds the pool to n workers total (n-1 helpers plus
// the calling goroutine); n <= 0 restores the GOMAXPROCS default. The
// linalg facade wires this to the engine context's parallelism.
func SetHelperBudget(n int) {
	if n <= 0 {
		budget.Store(0)
		return
	}
	budget.Store(int64(n))
}

// helperLimit returns how many helper goroutines may exist at once
// process-wide: one less than the worker budget, never exceeding
// GOMAXPROCS-1 (the caller occupies one slot).
func helperLimit() int64 {
	limit := int64(runtime.GOMAXPROCS(0)) - 1
	if b := budget.Load(); b > 0 && b-1 < limit {
		limit = b - 1
	}
	return limit
}

// acquire reserves up to want helper slots and returns how many were
// granted. Callers must release exactly the granted count.
func acquire(want int) int {
	if want <= 0 {
		return 0
	}
	limit := helperLimit()
	for {
		cur := active.Load()
		free := limit - cur
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if active.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// release returns helper slots to the budget.
func release(n int) {
	if n > 0 {
		active.Add(int64(-n))
	}
}

// ParallelChunks splits [0, n) into contiguous chunks and runs fn(lo, hi)
// on each, fanning chunks across helper goroutines bounded by the global
// GOMAXPROCS budget. minChunk bounds fan-out for small inputs (no helper
// is spawned for less than minChunk items of work). The caller always
// executes at least one chunk itself, so ParallelChunks never deadlocks
// even with a zero budget. Chunk boundaries depend only on n and the
// granted worker count, and every output element is owned by exactly one
// chunk, so results do not depend on scheduling.
//
// A panic in any chunk is re-raised on the calling goroutine after all
// helpers finish.
func ParallelChunks(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	want := n/minChunk - 1
	if maxHelpers := int(helperLimit()); want > maxHelpers {
		want = maxHelpers
	}
	helpers := acquire(want)
	if helpers == 0 {
		fn(0, n)
		return
	}
	defer release(helpers)
	workers := helpers + 1
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	for w := 1; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	first := chunk
	if first > n {
		first = n
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		fn(0, first)
	}()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
