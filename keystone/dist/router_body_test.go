package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"keystoneml/internal/httpbody"
	"keystoneml/keystone"
	"keystoneml/keystone/serve"
)

// TestRouterOversizedBodyIs413: the router holds a body in memory to
// hash and forward it, so it enforces the replicas' bound itself — 413
// on a declared length before reading, 413 at the bound for a body of
// unknown length — and routes the next request.
func TestRouterOversizedBodyIs413(t *testing.T) {
	p := keystone.Then(keystone.Input[string](), keystone.NewOp("half", func(string) []float64 {
		return []float64{0.5, 0.5}
	}))
	fitted, err := p.Fit(context.Background(), []string{"a"}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer()
	defer srv.Close()
	if _, err := serve.Register(srv, "text", fitted, serve.TextCodec{}); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv)
	defer replica.Close()
	rt, err := NewRouter(RouterOptions{Replicas: []string{replica.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const size = httpbody.Max + 1<<20
	big := make([]byte, size)
	for _, length := range []int64{size, -1} {
		req := httptest.NewRequest(http.MethodPost, "/routes/text/predict", bytes.NewReader(big))
		req.ContentLength = length
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%d MiB body of declared length %d = %d %s, want 413 with a JSON error", size>>20, length, rec.Code, rec.Body)
		}
	}
	if got := predictViaRouter(t, rt, "doc"); len(got) != 2 || got[0] != 0.5 {
		t.Errorf("prediction after the refusals = %v", got)
	}
}
