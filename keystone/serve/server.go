// Package serve is the first-class serving layer over fitted keystone
// pipelines: a typed pipeline registry (one HTTP server hosts text,
// speech and vision routes simultaneously, each with its own JSON codec,
// micro-batcher and stats), versioned zero-downtime hot-swap
// (Deploy/Rollback switch a route's artifact atomically while in-flight
// batches drain), canary and shadow rollout between versions
// (Canary/Shadow stage a candidate behind the live version; Promote and
// Abort resolve it losslessly), per-route admission control
// (WithAdmission caps in-flight work and sheds overload as 429 with
// Retry-After), and an SLO-driven autotuner that retargets each route's
// (maxBatch, maxDelay) online against a p95 latency objective with an
// optional throughput floor.
//
//	srv := serve.NewServer()
//	route, _ := serve.Register(srv, "sentiment", fitted,
//	        serve.TextCodec{Labels: []string{"negative", "positive"}},
//	        serve.WithSLO(serve.SLO{TargetP95: 20 * time.Millisecond}),
//	        serve.WithAdmission(serve.Admission{MaxInFlight: 256}))
//	go http.ListenAndServe(":8080", srv)
//	...
//	route.Canary(ctx, candidate, 0.1) // 10% of traffic on the candidate
//	// watch route.CanaryStats(), then:
//	route.Promote(ctx)                // or route.Abort(ctx)
//
// HTTP surface:
//
//	POST /predict                      default (first) route, single record
//	POST /predict/batch                default route, caller-assembled batch
//	POST /routes/{name}/predict        per-route single record
//	POST /routes/{name}/predict/batch  per-route batch
//	GET  /routes                       route listing
//	GET  /routes/{name}/stats          batcher + latency + limit + admission stats
//	GET  /routes/{name}/versions       version history (live flag, served/error counts)
//	POST /routes/{name}/deploy         refit (SetRefit) + hot-swap
//	POST /routes/{name}/rollback       redeploy the previously live artifact
//	POST /routes/{name}/canary         refit + stage a canary ({"fraction": 0.1})
//	GET  /routes/{name}/canary         live candidate-vs-primary comparison
//	POST /routes/{name}/shadow         refit + stage a shadow candidate
//	POST /routes/{name}/promote        candidate takes all traffic
//	POST /routes/{name}/abort          candidate drains and is discarded
//	GET  /stats                        all routes
//	GET  /healthz                      liveness
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// handler is the type-erased face of Route[I, O] inside the registry.
type handler interface {
	routeName() string
	handlePredict(w http.ResponseWriter, r *http.Request)
	handleBatch(w http.ResponseWriter, r *http.Request)
	handleDeploy(w http.ResponseWriter, r *http.Request)
	handleRollback(w http.ResponseWriter, r *http.Request)
	handleCanary(w http.ResponseWriter, r *http.Request)
	handleShadow(w http.ResponseWriter, r *http.Request)
	handlePromote(w http.ResponseWriter, r *http.Request)
	handleAbort(w http.ResponseWriter, r *http.Request)
	handleRollout(w http.ResponseWriter, r *http.Request)
	versionsValue() []map[string]any
	statsValue() map[string]any
	registryHealth() (tagErrs int64, liveArtifact string, bound bool)
	closeRoute()
}

// Server hosts the pipeline registry and implements http.Handler.
// Register routes (serve.Register), then mount the server on any
// net/http listener. Safe for concurrent requests, registrations and
// deploys.
type Server struct {
	mu      sync.RWMutex
	routes  map[string]handler
	order   []string // registration order; order[0] answers /predict
	closed  bool
	started time.Time
}

// NewServer returns an empty registry.
func NewServer() *Server {
	return &Server{routes: make(map[string]handler), started: time.Now()}
}

// add registers a route handle; called by Register.
func (s *Server) add(name string, h handler) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("serve: server closed")
	}
	if _, dup := s.routes[name]; dup {
		return fmt.Errorf("serve: route %q already registered", name)
	}
	s.routes[name] = h
	s.order = append(s.order, name)
	return nil
}

// route resolves a handle by name (nil if absent).
func (s *Server) route(name string) handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.routes[name]
}

// defaultRoute is the first registered route (nil if none).
func (s *Server) defaultRoute() handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.order) == 0 {
		return nil
	}
	return s.routes[s.order[0]]
}

// RouteNames lists registered routes in registration order.
func (s *Server) RouteNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// RouteStats returns one route's stats (the same values GET
// /routes/{name}/stats serves), or nil for an unknown route.
func (s *Server) RouteStats(name string) map[string]any {
	h := s.route(name)
	if h == nil {
		return nil
	}
	return h.statsValue()
}

// Close drains and closes every route: live batchers finish their
// in-flight work, autotuners stop, later requests get 503s. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	hs := make([]handler, 0, len(s.routes))
	for _, h := range s.routes {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	for _, h := range hs {
		h.closeRoute()
	}
}

// ServeHTTP implements http.Handler over the registry.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch path {
	case "/healthz":
		writeJSON(w, map[string]any{"status": "ok", "uptime": time.Since(s.started).String()})
		return
	case "/stats":
		s.handleStats(w)
		return
	case "/routes":
		s.handleRoutes(w, r)
		return
	case "/predict", "/predict/batch":
		h := s.defaultRoute()
		if h == nil {
			httpError(w, http.StatusServiceUnavailable, "no routes registered")
			return
		}
		if path == "/predict" {
			h.handlePredict(w, r)
		} else {
			h.handleBatch(w, r)
		}
		return
	}
	if rest, ok := strings.CutPrefix(path, "/routes/"); ok {
		name, action, _ := strings.Cut(rest, "/")
		h := s.route(name)
		if h == nil {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no route %q", name))
			return
		}
		switch action {
		case "predict":
			h.handlePredict(w, r)
		case "predict/batch":
			h.handleBatch(w, r)
		case "deploy":
			if !requirePost(w, r) {
				return
			}
			h.handleDeploy(w, r)
		case "rollback":
			if !requirePost(w, r) {
				return
			}
			h.handleRollback(w, r)
		case "canary":
			h.handleCanary(w, r) // GET = stats, POST = stage
		case "shadow":
			if !requirePost(w, r) {
				return
			}
			h.handleShadow(w, r)
		case "promote":
			if !requirePost(w, r) {
				return
			}
			h.handlePromote(w, r)
		case "abort":
			if !requirePost(w, r) {
				return
			}
			h.handleAbort(w, r)
		case "rollout":
			h.handleRollout(w, r) // GET = state, POST = apply
		case "versions":
			writeJSON(w, map[string]any{"route": h.routeName(), "versions": h.versionsValue()})
		case "stats", "":
			writeJSON(w, h.statsValue())
		default:
			httpError(w, http.StatusNotFound, fmt.Sprintf("no action %q on route %q", action, name))
		}
		return
	}
	httpError(w, http.StatusNotFound, "not found")
}

// handleStats renders every route's stats plus server uptime.
func (s *Server) handleStats(w http.ResponseWriter) {
	s.mu.RLock()
	hs := make([]handler, 0, len(s.routes))
	for _, h := range s.routes {
		hs = append(hs, h)
	}
	s.mu.RUnlock()
	routes := make(map[string]any, len(hs))
	// Fleet-wide registry health rides the top level: per-route tag_errors
	// buried under routes/{name}/registry hid persistence degradation from
	// operators polling /stats, so the totals and live artifact ids are
	// aggregated here too.
	var tagErrs int64
	live := map[string]any{}
	anyBound := false
	for _, h := range hs {
		routes[h.routeName()] = h.statsValue()
		if errs, artifact, bound := h.registryHealth(); bound {
			anyBound = true
			tagErrs += errs
			if artifact != "" {
				live[h.routeName()] = artifact
			}
		}
	}
	out := map[string]any{
		"uptime": time.Since(s.started).String(),
		"routes": routes,
	}
	if anyBound {
		out["registry"] = map[string]any{
			"tag_errors":     tagErrs,
			"live_artifacts": live,
		}
	}
	writeJSON(w, out)
}

// handleRoutes renders the route listing.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names := s.RouteNames()
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	def := ""
	if len(names) > 0 {
		def = names[0]
	}
	writeJSON(w, map[string]any{"routes": sorted, "default": def})
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	return true
}

// statusOf maps prediction errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, ErrRouteClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// jsonBufs recycles writeJSON's response buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers 200 with v as JSON. v is encoded before anything is
// written, so a value JSON cannot carry (a NaN score) is answered 500
// with an error body, not 200 with an empty one.
func writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("serve: write response: %v", err)
	}
}

// httpError answers code with {"error": msg}; msg may hold any bytes.
func httpError(w http.ResponseWriter, code int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg}) // a struct of one string always marshals
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write leaves no one to tell
}
