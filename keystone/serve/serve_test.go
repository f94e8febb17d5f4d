package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"keystoneml/keystone"
)

// fitTextMarker fits a trivial string pipeline whose scores identify the
// artifact: every document maps to the fixed score vector. No estimator,
// no optimizer work — swap and HTTP tests stay fast and deterministic.
func fitTextMarker(t testing.TB, scores ...float64) *keystone.Fitted[string, []float64] {
	t.Helper()
	p := keystone.Input[string]()
	out := keystone.Then(p, keystone.NewOp(fmt.Sprintf("marker%v", scores), func(string) []float64 {
		cp := make([]float64, len(scores))
		copy(cp, scores)
		return cp
	}))
	f, err := out.Fit(context.Background(), []string{"a", "b"}, nil,
		keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatalf("fit marker: %v", err)
	}
	return f
}

// fitFloatMarker is the numeric analogue: x -> [mark, x].
func fitFloatMarker(t testing.TB, mark float64) *keystone.Fitted[float64, []float64] {
	t.Helper()
	p := keystone.Input[float64]()
	out := keystone.Then(p, keystone.NewOp(fmt.Sprintf("fmarker[%g]", mark), func(x float64) []float64 {
		return []float64{mark, x}
	}))
	f, err := out.Fit(context.Background(), []float64{1, 2}, nil,
		keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatalf("fit float marker: %v", err)
	}
	return f
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer()
	f := fitTextMarker(t, 1, 0)
	codec := TextCodec{}
	if _, err := Register(s, "Bad Name", f, codec); err == nil {
		t.Error("invalid route name accepted")
	}
	if _, err := Register(s, "", f, codec); err == nil {
		t.Error("empty route name accepted")
	}
	if _, err := Register(s, "ok", nil, codec); err == nil {
		t.Error("nil fitted accepted")
	}
	if _, err := Register[string, []float64](s, "ok", f, nil); err == nil {
		t.Error("nil codec accepted")
	}
	if _, err := Register(s, "ok", f, codec); err != nil {
		t.Fatalf("valid registration rejected: %v", err)
	}
	if _, err := Register(s, "ok", f, codec); err == nil {
		t.Error("duplicate route name accepted")
	}
	if names := s.RouteNames(); len(names) != 1 || names[0] != "ok" {
		t.Errorf("RouteNames = %v, want [ok]", names)
	}
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: bad response JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("GET %s: bad response JSON: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestServerHTTP drives the whole multi-route HTTP surface: default
// route back-compat paths, per-route paths, stats, versions, deploy and
// rollback, and the argmax labeling on a 3-class route.
func TestServerHTTP(t *testing.T) {
	s := NewServer()
	defer s.Close()
	// Three classes with argmax at index 1 — the old hardcoded binary
	// mapping cannot label this.
	text, err := Register(s, "text", fitTextMarker(t, 0.1, 0.9, 0.2),
		TextCodec{Labels: []string{"neg", "pos", "mixed"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Register(s, "vec", fitFloatMarker(t, 3),
		JSONCodec[float64, []float64]{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/predict", `{"text":"hello"}`)
	if code != 200 || body["label"] != "pos" || body["class"] != float64(1) {
		t.Fatalf("/predict = %d %v, want label=pos class=1", code, body)
	}
	code, body = postJSON(t, ts.URL+"/routes/text/predict", `{"text":"hello"}`)
	if code != 200 || body["label"] != "pos" {
		t.Fatalf("/routes/text/predict = %d %v", code, body)
	}
	code, body = postJSON(t, ts.URL+"/routes/text/predict/batch", `{"texts":["a","b","c"]}`)
	if code != 200 {
		t.Fatalf("/routes/text/predict/batch = %d %v", code, body)
	}
	if results := body["results"].([]any); len(results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(results))
	}
	code, body = postJSON(t, ts.URL+"/routes/vec/predict", `{"input": 7.5}`)
	if code != 200 {
		t.Fatalf("/routes/vec/predict = %d %v", code, body)
	}
	if out := body["output"].([]any); out[0] != float64(3) || out[1] != 7.5 {
		t.Fatalf("vec output = %v, want [3 7.5]", out)
	}

	code, body = getJSON(t, ts.URL+"/routes")
	if code != 200 || body["default"] != "text" {
		t.Fatalf("/routes = %d %v", code, body)
	}
	if routes := body["routes"].([]any); len(routes) != 2 {
		t.Fatalf("routes listing = %v", routes)
	}
	code, body = getJSON(t, ts.URL+"/routes/text/stats")
	if code != 200 || body["live_version"] != float64(1) || body["versions"] != float64(1) {
		t.Fatalf("/routes/text/stats = %d %v", code, body)
	}
	code, body = getJSON(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	if routes := body["routes"].(map[string]any); len(routes) != 2 {
		t.Fatalf("/stats routes = %v", routes)
	}
	if code, _ = getJSON(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}

	// Hot-swap over HTTP: no refitter -> 501; with refitter the argmax
	// moves to class 2.
	code, _ = postJSON(t, ts.URL+"/routes/text/deploy", ``)
	if code != http.StatusNotImplemented {
		t.Fatalf("deploy without refitter = %d, want 501", code)
	}
	text.SetRefit(func(ctx context.Context) (*keystone.Fitted[string, []float64], error) {
		return fitTextMarker(t, 0.1, 0.2, 0.9), nil
	})
	code, body = postJSON(t, ts.URL+"/routes/text/deploy", ``)
	if code != 200 || body["version"] != float64(2) {
		t.Fatalf("deploy = %d %v, want version 2", code, body)
	}
	code, body = postJSON(t, ts.URL+"/predict", `{"text":"hello"}`)
	if code != 200 || body["label"] != "mixed" {
		t.Fatalf("post-swap /predict = %d %v, want label=mixed", code, body)
	}
	code, body = getJSON(t, ts.URL+"/routes/text/versions")
	if code != 200 {
		t.Fatalf("/routes/text/versions = %d", code)
	}
	vers := body["versions"].([]any)
	if len(vers) != 2 {
		t.Fatalf("version history = %v, want 2 entries", vers)
	}
	if live := vers[1].(map[string]any); live["live"] != true || live["id"] != float64(2) {
		t.Fatalf("live version entry = %v", live)
	}

	// Rollback restores the first artifact as version 3.
	code, body = postJSON(t, ts.URL+"/routes/text/rollback", ``)
	if code != 200 || body["version"] != float64(3) {
		t.Fatalf("rollback = %d %v, want version 3", code, body)
	}
	code, body = postJSON(t, ts.URL+"/predict", `{"text":"hello"}`)
	if code != 200 || body["label"] != "pos" {
		t.Fatalf("post-rollback /predict = %d %v, want label=pos", code, body)
	}

	// Error surface.
	if code, _ = postJSON(t, ts.URL+"/routes/nope/predict", `{}`); code != 404 {
		t.Errorf("unknown route = %d, want 404", code)
	}
	if code, _ = getJSON(t, ts.URL+"/predict"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict = %d, want 405", code)
	}
	if code, _ = postJSON(t, ts.URL+"/routes/text/predict", `{"no_text":1}`); code != 400 {
		t.Errorf("missing text field = %d, want 400", code)
	}
	if code, _ = getJSON(t, ts.URL+"/routes/text/nonsense"); code != 404 {
		t.Errorf("unknown action = %d, want 404", code)
	}
}

// TestServerClosed: after Close every route answers 503 and programmatic
// predictions fail with ErrRouteClosed.
func TestServerClosed(t *testing.T) {
	s := NewServer()
	rt, err := Register(s, "text", fitTextMarker(t, 1, 0), TextCodec{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Close()
	s.Close() // idempotent
	if _, err := rt.Predict(context.Background(), "x"); err != ErrRouteClosed {
		t.Fatalf("Predict after Close = %v, want ErrRouteClosed", err)
	}
	if code, _ := postJSON(t, ts.URL+"/predict", `{"text":"x"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("/predict after Close = %d, want 503", code)
	}
}

func TestClassPrediction(t *testing.T) {
	cases := []struct {
		scores []float64
		labels []string
		label  string
		class  int
	}{
		{[]float64{0.2, 0.8}, []string{"negative", "positive"}, "positive", 1},
		{[]float64{0.8, 0.2}, []string{"negative", "positive"}, "negative", 0},
		// Non-binary argmax — the satellite fix: the old hardcoded
		// scores[1] > scores[0] mapping mislabels this.
		{[]float64{0.1, 0.2, 0.9, 0.3}, []string{"a", "b", "c", "d"}, "c", 2},
		// Labels shorter than the score vector fall back to classN.
		{[]float64{0, 0, 5}, []string{"a"}, "class2", 2},
		{[]float64{1, 2}, nil, "class1", 1},
		{nil, nil, "", -1},
	}
	for i, c := range cases {
		got := ClassPrediction(c.scores, c.labels)
		if got.Label != c.label || got.Class != c.class {
			t.Errorf("case %d: ClassPrediction(%v, %v) = {%q %d}, want {%q %d}",
				i, c.scores, c.labels, got.Label, got.Class, c.label, c.class)
		}
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	if _, err := (TextCodec{}).DecodeRequest([]byte(`{"nope":1}`)); err == nil {
		t.Error("TextCodec accepted a body without text")
	}
	if _, err := (TextCodec{}).DecodeBatch([]byte(`{"texts":[]}`)); err == nil {
		t.Error("TextCodec accepted an empty batch")
	}
	if _, err := (VectorCodec{Dim: 3}).DecodeRequest([]byte(`{"vector":[1,2]}`)); err == nil {
		t.Error("VectorCodec accepted a wrong-dimension vector")
	}
	if v, err := (VectorCodec{Dim: 2}).DecodeRequest([]byte(`{"vector":[1,2]}`)); err != nil || len(v) != 2 {
		t.Errorf("VectorCodec rejected a valid vector: %v %v", v, err)
	}
	if _, err := (ImageCodec{}).DecodeRequest([]byte(`{"width":2,"height":2,"pixels":[1,2,3]}`)); err == nil {
		t.Error("ImageCodec accepted a pixel count mismatch")
	}
	im, err := (ImageCodec{}).DecodeRequest([]byte(`{"width":2,"height":2,"pixels":[1,2,3,4]}`))
	if err != nil {
		t.Fatalf("ImageCodec rejected a valid image: %v", err)
	}
	if im.Channels != 1 || im.At(1, 1, 0) != 4 {
		t.Errorf("decoded image = %+v", im)
	}
	ims, err := (ImageCodec{}).DecodeBatch([]byte(`{"images":[{"width":1,"height":1,"pixels":[5]},{"width":1,"height":1,"channels":2,"pixels":[1,2]}]}`))
	if err != nil || len(ims) != 2 {
		t.Fatalf("ImageCodec batch = %v, %v", ims, err)
	}
	if _, err := (JSONCodec[float64, float64]{}).DecodeRequest([]byte(`{}`)); err == nil {
		t.Error("JSONCodec accepted a body without input")
	}
}

// TestRouteTimeout: a prediction exceeding the route timeout surfaces as
// 504 without wedging the route.
func TestRouteTimeout(t *testing.T) {
	p := keystone.Input[string]()
	out := keystone.Then(p, keystone.NewOp("slow", func(s string) []float64 {
		time.Sleep(100 * time.Millisecond)
		return []float64{1, 0}
	}))
	f, err := out.Fit(context.Background(), []string{"a"}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	if _, err := Register(s, "slow", f, TextCodec{}, WithTimeout(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte(`{"text":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow predict = %d, want 504", resp.StatusCode)
	}
}

// TestPredictPanicIs500: a record that makes an operator panic (here a
// 1-element vector into an op that reads v[3]; VectorCodec.Dim is
// optional, so any client can send one) is that request's 500 — not a
// dropped connection, not a dead process — and the route serves the next
// request.
func TestPredictPanicIs500(t *testing.T) {
	p := keystone.Input[[]float64]()
	out := keystone.Then(p, keystone.NewOp("fourth", func(v []float64) []float64 {
		return []float64{v[3], 0}
	}))
	f, err := out.Fit(context.Background(), [][]float64{{1, 2, 3, 4}}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "vec", f, VectorCodec{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/predict", `{"vector":[1]}`)
	if msg, _ := body["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "panicked") {
		t.Fatalf("malformed record = %d %v, want 500 carrying the recovered panic", code, body)
	}
	code, body = postJSON(t, ts.URL+"/predict", `{"vector":[1,2,3,9]}`)
	if scores, _ := body["scores"].([]any); code != 200 || len(scores) != 2 || scores[0] != float64(9) {
		t.Fatalf("good record after the panic = %d %v, want 200 with scores [9 0]", code, body)
	}
	if b := rt.cur.Load().batcher; b.failed.Load() != 1 || b.records.Load() != 2 {
		t.Errorf("batcher failed=%d records=%d, want 1 of 2", b.failed.Load(), b.records.Load())
	}
}

// TestNaNScoreIs500: a score JSON cannot carry is that request's 500
// with an error body — not a 200 with an empty one — on the single and
// the batch path, and the route serves the next request.
func TestNaNScoreIs500(t *testing.T) {
	p := keystone.Input[[]float64]()
	out := keystone.Then(p, keystone.NewOp("nan-when-negative", func(v []float64) []float64 {
		if v[0] < 0 {
			return []float64{math.NaN(), 1}
		}
		return []float64{v[0], 1}
	}))
	f, err := out.Fit(context.Background(), [][]float64{{1}}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	if _, err := Register(s, "vec", f, VectorCodec{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, c := range []struct{ path, body string }{
		{"/predict", `{"vector":[-1]}`},
		{"/predict/batch", `{"vectors":[[2],[-1]]}`},
	} {
		code, body := postJSON(t, ts.URL+c.path, c.body)
		if msg, _ := body["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "NaN") {
			t.Errorf("%s with a NaN score = %d %v, want 500 naming the NaN", c.path, code, body)
		}
	}
	code, body := postJSON(t, ts.URL+"/predict", `{"vector":[2]}`)
	if scores, _ := body["scores"].([]any); code != 200 || len(scores) != 2 || scores[0] != float64(2) {
		t.Fatalf("finite score after the NaN = %d %v, want 200 with scores [2 1]", code, body)
	}
}

// TestErrorBodyIsJSON: an error message carrying bytes Go's %q escapes
// in a way JSON does not (a NUL, invalid UTF-8) still makes a valid JSON
// error body.
func TestErrorBodyIsJSON(t *testing.T) {
	p := keystone.Input[[]float64]()
	out := keystone.Then(p, keystone.NewOp("raw-bytes", func(v []float64) []float64 {
		if v[0] < 0 {
			panic("bad \x00 and \xff bytes")
		}
		return v
	}))
	f, err := out.Fit(context.Background(), [][]float64{{1}}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	if _, err := Register(s, "vec", f, VectorCodec{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"vector":[-1]}`)))
	if rec.Code != http.StatusInternalServerError || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("panic carrying raw bytes = %d %q, want 500 with a valid JSON body", rec.Code, rec.Body.Bytes())
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "bad \x00 and � bytes") {
		t.Fatalf("error body %q (%v), want the message with NUL kept and the invalid byte replaced", rec.Body.Bytes(), err)
	}
}

// TestRegisterLimitDefaults: limits are resolved in one place, Register
// — unset or negative, 32 records and 1ms — and an SLO clamps what
// Register resolved: a tuned route with unset limits starts there too,
// and one asked for no linger starts at the tuner's MinDelay.
func TestRegisterLimitDefaults(t *testing.T) {
	s := NewServer()
	defer s.Close()
	f := fitFloatMarker(t, 1)
	codec := JSONCodec[float64, []float64]{}
	limits := func(name string, want time.Duration, opts ...RouteOption) *Route[float64, []float64] {
		t.Helper()
		rt, err := Register(s, name, f, codec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if b, d := rt.cur.Load().batcher.limits(); b != 32 || d != want {
			t.Errorf("%s: limits = (%d, %v), want (32, %v)", name, b, d, want)
		}
		return rt
	}
	slo := WithSLO(SLO{TargetP95: 10 * time.Millisecond})
	limits("plain", time.Millisecond)
	limits("nolinger", 0, WithBatchLimits(0, 0))
	limits("negative", time.Millisecond, WithBatchLimits(-1, -1))
	limits("tuned", time.Millisecond, slo)
	tuned := limits("tuned-nolinger", 50*time.Microsecond, slo, WithBatchLimits(0, 0))
	// The next version starts where this one stands.
	if b, d := tuned.limits(); b != 32 || d != tuned.slo.MinDelay {
		t.Errorf("SLO route carries (%d, %v) to its next version, want (32, %v)", b, d, tuned.slo.MinDelay)
	}
}
