package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"keystoneml/keystone"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

// TestRouterRejoinRedeploy: a replica that dies and restarts EMPTY (a
// fresh worker process on the same port, no routes registered) must be
// re-admitted by the router's health loop with the route's live artifact
// re-shipped, so it rejoins serving — not 404ing its keyspace.
func TestRouterRejoinRedeploy(t *testing.T) {
	regDir := t.TempDir()
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	train := keystone.SyntheticReviews(80, 1)
	fitted, err := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 150, Iterations: 3}).
		Fit(context.Background(), train.Records, train.Labels,
			keystone.WithOptimizerLevel(keystone.LevelPipeline))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := keystone.Encode(fitted)
	if err != nil {
		t.Fatal(err)
	}
	id, err := reg.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	RegisterServeKind("rejoin-text", func(srv *serve.Server, store serve.ArtifactStore, route, ref string) error {
		_, err := serve.RegisterArtifact[string, []float64](srv, route, store, ref, serve.TextCodec{})
		return err
	})

	cl, workers := startCluster(t, 2, WorkerOptions{HTTPListen: "127.0.0.1:0", RegistryDir: regDir})
	replicas, err := cl.ServeRoute("rejoin-text", "text", id)
	if err != nil {
		t.Fatalf("serve route: %v", err)
	}

	router, err := NewRouter(RouterOptions{Replicas: replicas, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.TrackRoute("text", "rejoin-text", id)

	doc := train.Records[0]
	want, err := fitted.Transform(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := predictViaRouter(t, router, doc); !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline router prediction %v != direct %v", got, want)
	}

	// Kill replica 0 and wait for the router to mark it down.
	httpAddr := strings.TrimPrefix(replicas[0], "http://")
	workers[0].Close()
	waitReplicaHealth(t, router, replicas[0], false)

	// Restart an EMPTY worker on the same HTTP port: no ServeRoute, no
	// routes — only the router's rejoin redeploy can make it serve. The
	// bind can race the OS releasing the port, so retry briefly.
	var fresh *Worker
	deadline := time.Now().Add(5 * time.Second)
	for {
		fresh, err = StartWorker(WorkerOptions{Listen: "127.0.0.1:0", HTTPListen: httpAddr, RegistryDir: regDir})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", httpAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { fresh.Close() })

	// The health loop must redeploy before readmitting: once the replica
	// is marked healthy again, it serves the live artifact.
	waitReplicaHealth(t, router, replicas[0], true)
	resp, err := http.Post(replicas[0]+"/routes/text/predict", "application/json",
		strings.NewReader(`{"text":`+jsonString(doc)+`}`))
	if err != nil {
		t.Fatalf("rejoined replica unreachable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rejoined replica answered %s for a tracked route", resp.Status)
	}
	if got := predictViaRouter(t, router, doc); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-rejoin prediction %v != direct %v", got, want)
	}
}

// waitReplicaHealth polls the router's health marks until the replica at
// addr reports the wanted health, failing after a bounded wait (no
// fixed sleeps — the poll ends the moment the health loop flips).
func waitReplicaHealth(t *testing.T, rt *Router, addr string, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, rs := range rt.Replicas() {
			if rs.Addr == addr && rs.Healthy == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never became healthy=%v", addr, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// jsonString quotes a document for a hand-built JSON body.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
