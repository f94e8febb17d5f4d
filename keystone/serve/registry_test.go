package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"keystoneml/internal/httpbody"
	"keystoneml/keystone"
)

// post calls the server's handler in-process with a body of the given
// declared length (-1 = unknown, as a chunked upload is).
func post(s http.Handler, path string, body io.Reader, length int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = length
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestOversizedBodyIs413: a body over the bound is refused as too large
// — on its declared length before it is read, or at the bound when no
// length is declared — not cut short and answered 400 for the JSON the
// cut left; the route serves the next request.
func TestOversizedBodyIs413(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if _, err := Register(s, "text", fitTextMarker(t, 0.25, 0.75), TextCodec{}); err != nil {
		t.Fatal(err)
	}
	const size = httpbody.Max + 1<<20
	big := make([]byte, size)
	for _, c := range []struct {
		path   string
		length int64
	}{
		{"/predict", size}, {"/predict", -1}, {"/predict/batch", size}, {"/routes/text/predict", -1},
		{"/routes/text/deploy", size}, {"/routes/text/rollout", size}, {"/routes/text/canary", size},
	} {
		rec := post(s, c.path, bytes.NewReader(big), c.length)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s, %d MiB body of declared length %d = %d %s, want 413 with a JSON error",
				c.path, size>>20, c.length, rec.Code, rec.Body)
		}
	}
	for _, length := range []int64{-1, int64(len(`{"text":"x"}`))} {
		if rec := post(s, "/predict", strings.NewReader(`{"text":"x"}`), length); rec.Code != http.StatusOK {
			t.Errorf("request after the refusals (declared length %d) = %d %s, want 200", length, rec.Code, rec.Body)
		}
	}
	// A declared length over what is allocated up front is still read whole.
	padded := `{"text":"x"}` + strings.Repeat(" ", 2<<20)
	if rec := post(s, "/predict", strings.NewReader(padded), int64(len(padded))); rec.Code != http.StatusOK {
		t.Errorf("2 MiB body of declared length = %d %s, want 200", rec.Code, rec.Body)
	}
	// A body shorter than it declares is a failed read, not a short record.
	if rec := post(s, "/predict", strings.NewReader(`{"text":"x"}`), 100); rec.Code != http.StatusBadRequest {
		t.Errorf("body shorter than its Content-Length = %d, want 400", rec.Code)
	}
}

// TestBatchPanicIs500 is TestPredictPanicIs500 for /predict/batch, which
// runs the pipeline on the handler's goroutine: an operator panic is that
// request's 500 with a JSON error — not a connection net/http drops —
// the version's gate is left (a deploy still drains) and the route
// serves the next batch. It holds for a per-record pipeline and for one
// TransformBatch runs a block at a time (the speech pipeline), whose
// batch of the wrong width falls back to the per-record path and panics
// there. A ragged batch never reaches either: it is a 400 at decode.
func TestBatchPanicIs500(t *testing.T) {
	p := keystone.Input[[]float64]()
	fourth, err := keystone.Then(p, keystone.NewOp("fourth", func(v []float64) []float64 {
		return []float64{v[3], 0}
	})).Fit(context.Background(), [][]float64{{1, 2, 3, 4}}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	train := keystone.SyntheticDenseVectors(30, 4, 2, 1)
	speech, err := keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: 4, NumFeatures: 8, Seed: 3, Iterations: 2}).
		Fit(context.Background(), train.Records, train.Labels, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*keystone.Fitted[[]float64, []float64]{"per-record": fourth, "block": speech} {
		t.Run(name, func(t *testing.T) {
			s := NewServer()
			defer s.Close()
			rt, err := Register(s, "vec", f, VectorCodec{}, WithAdmission(Admission{MaxInFlight: 2}))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()

			code, body := postJSON(t, ts.URL+"/predict/batch", `{"vectors":[[1,2,3],[1,2,3]]}`)
			if msg, _ := body["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "pipeline panicked") {
				t.Fatalf("batch of records too short = %d %v, want 500 carrying the recovered panic", code, body)
			}
			if v := rt.cur.Load(); v.errs.Load() != 2 || v.served.Load() != 0 {
				t.Errorf("after the panic: errs=%d served=%d, want the batch's 2 records failed", v.errs.Load(), v.served.Load())
			}
			code, body = postJSON(t, ts.URL+"/predict/batch", `{"vectors":[[1,2,3,4],[1]]}`)
			if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "vector 1 has 1 dims, vector 0 has 4") {
				t.Fatalf("ragged batch = %d %v, want 400 naming the short vector", code, body)
			}
			// Admission holds 2 records: were the panicked batch's still held,
			// this one would be shed.
			code, body = postJSON(t, ts.URL+"/predict/batch", `{"vectors":[[1,2,3,9],[1,2,3,8]]}`)
			if results, _ := body["results"].([]any); code != http.StatusOK || len(results) != 2 {
				t.Fatalf("good batch after the panic = %d %v, want 200 with 2 results", code, body)
			}
			// Deploy retires the old version, which waits for its gate: a gate
			// the panic never left would hang here.
			if _, err := rt.Deploy(context.Background(), f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResponseBytes pins the response wire format byte for byte.
func TestResponseBytes(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if _, err := Register(s, "text", fitTextMarker(t, 0.25, 0.75, -1e-7), TextCodec{Labels: []string{"neg", ""}}); err != nil {
		t.Fatal(err)
	}
	const one = `{"label":"class1","class":1,"scores":[0.25,0.75,-1e-7]}`
	for path, c := range map[string]struct{ body, want string }{
		"/predict":       {`{"text":"a"}`, one + "\n"},
		"/predict/batch": {`{"texts":["a","b","c"]}`, `{"results":[` + one + `,` + one + `,` + one + `]}` + "\n"},
	} {
		rec := post(s, path, strings.NewReader(c.body), int64(len(c.body)))
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != c.want {
			t.Errorf("%s = %d %q, want %q", path, rec.Code, got, c.want)
		}
		if v := rec.Header().Get("X-Keystone-Version"); v != "1" {
			t.Errorf("%s: X-Keystone-Version = %q, want 1", path, v)
		}
	}
	if got := ClassPrediction([]float64{1, 3, 2}, nil); got.Label != "class1" {
		t.Errorf("unlabeled class = %q, want class1", got.Label)
	}
	// A body is read whole at its declared length, whatever the reader's
	// chunking.
	rec := post(s, "/predict", iotest.OneByteReader(strings.NewReader(`{"text":"a"}`)), 12)
	if rec.Code != http.StatusOK {
		t.Errorf("body arriving a byte at a time = %d %s", rec.Code, rec.Body)
	}
}
