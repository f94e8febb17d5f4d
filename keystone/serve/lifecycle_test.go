package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdingPipelines counts the versions in rt's history that still hold a
// fitted pipeline or a batcher.
func holdingPipelines(rt *Route[float64, []float64]) int {
	rt.histMu.RLock()
	defer rt.histMu.RUnlock()
	n := 0
	for _, v := range rt.vers {
		if v.fitted != nil || v.batcher != nil {
			n++
		}
	}
	return n
}

// TestRetiredVersionsReleasePipeline: a route holds at most three
// pipelines — live, staged candidate, rollback target — however long its
// history grows, and the history still lists every version.
func TestRetiredVersionsReleasePipeline(t *testing.T) {
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "m", fitFloatMarker(t, 1), JSONCodec[float64, []float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for d := 2; d <= 11; d++ {
		if _, err := rt.Deploy(ctx, fitFloatMarker(t, float64(d))); err != nil {
			t.Fatalf("deploy %d: %v", d, err)
		}
		if n := holdingPipelines(rt); n > 2 {
			t.Errorf("after deploy %d, %d versions hold a pipeline, want live + rollback target", d, n)
		}
	}
	if _, err := rt.Canary(ctx, fitFloatMarker(t, 99), 0.5); err != nil {
		t.Fatal(err)
	}
	if n := holdingPipelines(rt); n != 3 {
		t.Errorf("with a canary staged %d versions hold a pipeline, want 3", n)
	}
	if err := rt.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if n := holdingPipelines(rt); n > 3 {
		t.Fatalf("after 10 deploys and an aborted canary, %d versions hold a pipeline, want at most 3", n)
	}
	if got := len(rt.versionsValue()); got != 12 {
		t.Fatalf("history lists %d versions, want 12", got)
	}
	if _, err := rt.Rollback(ctx); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if out, err := rt.Predict(ctx, 5); err != nil || out[0] != 10 || out[1] != 5 {
		t.Fatalf("after rollback = %v, %v; want v10's mark serving", out, err)
	}
}

// TestLifecycleUnderLoad drives every version transition — Deploy,
// Rollback, DeployArtifact, Canary→Promote, Shadow→Abort, Server.Close —
// while programmatic callers hammer the route. Every request before the
// close succeeds, each transition closes exactly the one batcher of the
// version it retired (staging closes none), and Close leaves no goroutine
// behind: batch loops, flushes, watchers, mirrors and the tuner all end.
func TestLifecycleUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewServer()
	defer s.Close()
	store := newMemStore()
	rt, err := Register(s, "m", fitStoredMarker(t, "serve.markA"), JSONCodec[float64, []float64]{},
		WithArtifactStore(store), WithBatchLimits(8, 200*time.Microsecond),
		WithSLO(SLO{TargetP95: time.Second, Interval: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}

	var (
		closing          atomic.Bool
		served, failures atomic.Int64
		wg               sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				x := float64(i)
				out, err := rt.Predict(context.Background(), x)
				switch {
				case err == nil && (out[0] == 1 || out[0] == 2) && out[1] == x:
					served.Add(1)
				case errors.Is(err, ErrRouteClosed) && closing.Load():
					return
				default:
					failures.Add(1)
					t.Errorf("request %g = %v, %v", x, out, err)
					return
				}
			}
		}()
	}

	// openBatchers maps every batcher still open to its version id.
	openBatchers := func() map[*batcher[float64, []float64]]int {
		rt.histMu.RLock()
		defer rt.histMu.RUnlock()
		open := map[*batcher[float64, []float64]]int{}
		for _, v := range rt.vers {
			if v.batcher != nil && !isClosed(v.batcher) {
				open[v.batcher] = v.id
			}
		}
		return open
	}
	ctx := context.Background()
	transition := func(name string, retired int, fn func() error) {
		t.Helper()
		before := served.Load()
		for served.Load() < before+20 && failures.Load() == 0 {
			time.Sleep(100 * time.Microsecond) // let traffic reach the live version
		}
		open := openBatchers()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var closed []int
		for b, id := range open {
			if isClosed(b) {
				closed = append(closed, id)
			}
		}
		var want []int
		if retired > 0 {
			want = []int{retired}
		}
		if !slices.Equal(closed, want) {
			t.Errorf("%s closed the batchers of versions %v, want %v", name, closed, want)
		}
	}
	errOf := func(_ int, err error) error { return err }

	transition("deploy", 1, func() error { return errOf(rt.Deploy(ctx, fitStoredMarker(t, "serve.markB"))) })
	markB := rt.LiveArtifact()
	transition("rollback", 2, func() error { return errOf(rt.Rollback(ctx)) })
	transition("deploy artifact", 3, func() error { return errOf(rt.DeployArtifact(ctx, markB)) })
	transition("canary", 0, func() error { return errOf(rt.Canary(ctx, fitStoredMarker(t, "serve.markA"), 0.5)) })
	transition("promote", 4, func() error { return errOf(rt.Promote(ctx)) })
	transition("shadow", 0, func() error { return errOf(rt.Shadow(ctx, fitStoredMarker(t, "serve.markB"))) })
	transition("abort", 6, func() error { return rt.Abort(ctx) })
	transition("close", 5, func() error {
		closing.Store(true)
		s.Close()
		return nil
	})
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed across the transitions", failures.Load())
	}
	t.Logf("%d requests served across 8 transitions", served.Load())

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before Register", n, base)
	}
}

func isClosed[I, O any](b *batcher[I, O]) bool {
	select {
	case <-b.quit:
		return true
	default:
		return false
	}
}
