package dist

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestRouterErrorsAreJSON: the errors the router answers itself — a body
// over the bound (413) and no live replica to forward to (503) — carry
// the JSON error shape and content type a replica's own errors do.
func TestRouterErrorsAreJSON(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // every forward fails, so the only replica goes down
	rt, err := NewRouter(RouterOptions{Replicas: []string{gone.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, c := range []struct {
		name   string
		length int64
		want   int
	}{
		{"oversized body", httpbody.Max + 1, http.StatusRequestEntityTooLarge},
		{"no live replicas", 2, http.StatusServiceUnavailable},
	} {
		req := httptest.NewRequest(http.MethodPost, "/routes/text/predict", strings.NewReader("{}"))
		req.ContentLength = c.length
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		var body struct {
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == nil {
			t.Errorf("%s: body %q is not a JSON error (%v)", c.name, rec.Body.Bytes(), err)
		}
		if ct := rec.Header().Get("Content-Type"); rec.Code != c.want || ct != "application/json" {
			t.Errorf("%s = %d %q, want %d application/json", c.name, rec.Code, ct, c.want)
		}
	}
}
