package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keystoneml/keystone"
)

// TestHotSwapZeroDowntime is the acceptance test for the versioned
// hot-swap: N concurrent clients hammer a route while the test deploys a
// stream of new pipeline versions. Zero requests may fail, every
// response must come from a version that was deployed at some point, and
// the history must show each old version drained. Run under -race this
// also proves the swap machinery's locking.
func TestHotSwapZeroDowntime(t *testing.T) {
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "m", fitFloatMarker(t, 1), JSONCodec[float64, []float64]{},
		WithBatchLimits(8, 500*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients = 8
		deploys = 10
	)
	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
		badMark  atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				out, err := rt.Predict(context.Background(), float64(i))
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d request %d failed: %v", c, i, err)
					return
				}
				// Marker must be one of the deployed versions' marks
				// (1..deploys+1) and echo the input — a torn read or a
				// half-swapped artifact would break this.
				if out[0] < 1 || out[0] > deploys+1 || out[1] != float64(i) {
					badMark.Add(1)
					t.Errorf("client %d request %d: implausible output %v", c, i, out)
					return
				}
			}
		}(c)
	}

	for d := 2; d <= deploys+1; d++ {
		time.Sleep(5 * time.Millisecond) // let traffic hit the live version
		ver, err := rt.Deploy(context.Background(), fitFloatMarker(t, float64(d)))
		if err != nil {
			t.Fatalf("deploy %d: %v", d, err)
		}
		if ver != d {
			t.Fatalf("deploy %d returned version %d", d, ver)
		}
	}
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 || badMark.Load() != 0 {
		t.Fatalf("%d failures, %d bad outputs across %d requests", failures.Load(), badMark.Load(), requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests made")
	}
	if live := rt.LiveVersion(); live != deploys+1 {
		t.Fatalf("live version = %d, want %d", live, deploys+1)
	}
	// Every served request is accounted to exactly one version.
	var perVersion int64
	for _, v := range rt.versionsValue() {
		perVersion += v["served"].(int64)
	}
	if perVersion != requests.Load() {
		t.Fatalf("version history accounts %d served, want %d", perVersion, requests.Load())
	}
	t.Logf("%d clients, %d requests, %d deploys, zero failures", clients, requests.Load(), deploys)
}

// TestDeployDrainsInFlight: Deploy must not return (nor close the old
// batcher) while a request is still executing on the old version, and
// that request must complete successfully on the version that admitted
// it.
func TestDeployDrainsInFlight(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	p := keystone.Input[float64]()
	out := keystone.Then(p, keystone.NewOp("gated", func(x float64) []float64 {
		if x == 99 {
			entered <- struct{}{}
			<-gate
		}
		return []float64{1, x}
	}))
	f, err := out.Fit(context.Background(), []float64{1}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "gated", f, JSONCodec[float64, []float64]{},
		WithBatchLimits(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	predDone := make(chan error, 1)
	go func() {
		out, err := rt.Predict(context.Background(), 99)
		if err == nil && out[0] != 1 {
			err = fmt.Errorf("served by wrong artifact: %v", out)
		}
		predDone <- err
	}()
	<-entered // the request is now executing inside version 1

	deployDone := make(chan struct{})
	go func() {
		if _, err := rt.Deploy(context.Background(), fitFloatMarker(t, 2)); err != nil {
			t.Errorf("deploy: %v", err)
		}
		close(deployDone)
	}()

	select {
	case <-deployDone:
		t.Fatal("Deploy returned while a request was still in flight on the old version")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-predDone; err != nil {
		t.Fatalf("in-flight request failed across the swap: %v", err)
	}
	select {
	case <-deployDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Deploy never finished after the drain")
	}
	// New traffic lands on version 2.
	got, err := rt.Predict(context.Background(), 5)
	if err != nil || got[0] != 2 {
		t.Fatalf("post-swap predict = %v, %v; want mark 2", got, err)
	}
}

// TestRollbackRestoresArtifact: rollback serves the previous artifact
// under a fresh version id, and rolling back with no history fails.
func TestRollbackRestoresArtifact(t *testing.T) {
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "m", fitFloatMarker(t, 1), JSONCodec[float64, []float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Rollback(context.Background()); err == nil {
		t.Fatal("rollback with a single version should fail")
	}
	if _, err := rt.Deploy(context.Background(), fitFloatMarker(t, 2)); err != nil {
		t.Fatal(err)
	}
	if out, _ := rt.Predict(context.Background(), 0); out[0] != 2 {
		t.Fatalf("post-deploy mark = %v, want 2", out[0])
	}
	ver, err := rt.Rollback(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ver != 3 {
		t.Fatalf("rollback version = %d, want 3", ver)
	}
	if out, _ := rt.Predict(context.Background(), 0); out[0] != 1 {
		t.Fatalf("post-rollback mark = %v, want 1", out[0])
	}
}
