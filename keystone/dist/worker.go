package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// Listen is the TCP address for the wire protocol ("127.0.0.1:0"
	// picks a free port; see Worker.Addr).
	Listen string
	// HTTPListen, when non-empty, additionally runs a serve.Server
	// replica on this address; routes are registered onto it via the
	// serve wire op (shipping a registry artifact id).
	HTTPListen string
	// RegistryDir is the artifact registry backing serve ops (required
	// for them; fit-only workers can omit it).
	RegistryDir string
	// Parallelism bounds the worker's partition-level parallelism
	// (default 1: on a multi-worker host, cores are divided between
	// processes, not multiplied).
	Parallelism int
}

// Worker holds partitions of distributed collections and executes wire
// ops against them; optionally it also hosts a serving replica. Start
// one with StartWorker (in-process, as the tests do) or via
// cmd/keyworker (a real process, as dist-smoke does).
type Worker struct {
	ln     net.Listener
	ctx    *engine.Context
	regDir string

	httpLn  net.Listener
	httpSrv *http.Server
	srv     *serve.Server

	mu     sync.Mutex
	data   map[string]map[int][]any // dataset -> global partition index -> records
	store  serve.ArtifactStore      // opened lazily for serve ops
	routes map[string]string        // route -> artifact ref registered on the replica

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{}
}

// StartWorker binds the worker's listeners and starts serving the wire
// protocol in the background.
func StartWorker(opts WorkerOptions) (*Worker, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = 1
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("dist: worker listen %s: %w", opts.Listen, err)
	}
	w := &Worker{
		ln:     ln,
		ctx:    engine.NewContext(par),
		regDir: opts.RegistryDir,
		data:   make(map[string]map[int][]any),
		routes: make(map[string]string),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if opts.HTTPListen != "" {
		hln, err := net.Listen("tcp", opts.HTTPListen)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("dist: worker http listen %s: %w", opts.HTTPListen, err)
		}
		w.httpLn = hln
		w.srv = serve.NewServer()
		w.httpSrv = &http.Server{Handler: http.HandlerFunc(w.replicaHTTP)}
		go w.httpSrv.Serve(hln) //nolint:errcheck // Serve returns on Close
	}
	go w.acceptLoop()
	return w, nil
}

// Addr returns the wire-protocol address the worker is listening on.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// HTTPAddr returns the serving replica's base URL, or "" when the
// worker runs without one.
func (w *Worker) HTTPAddr() string {
	if w.httpLn == nil {
		return ""
	}
	return "http://" + w.httpLn.Addr().String()
}

// Wait blocks until the worker is closed.
func (w *Worker) Wait() { <-w.done }

// Close shuts the worker down: listeners first (no new connections),
// then the serving replica's routes drain.
func (w *Worker) Close() error {
	w.closeOnce.Do(func() {
		close(w.closed)
		w.ln.Close()
		if w.httpSrv != nil {
			w.httpSrv.Close()
			w.srv.Close()
		}
		close(w.done)
	})
	return nil
}

func (w *Worker) acceptLoop() {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go w.serveConn(conn)
	}
}

// serveConn answers requests on one coordinator connection in order
// until the connection drops or the worker closes.
func (w *Worker) serveConn(conn net.Conn) {
	defer conn.Close()
	br, bw := connBuffers(conn)
	for {
		select {
		case <-w.closed:
			return
		default:
		}
		var req request
		if err := readFrame(br, &req); err != nil {
			return // EOF or torn frame: the coordinator is gone
		}
		resp := w.handle(&req)
		err := writeFrame(bw, resp)
		if errors.Is(err, ErrFrameEncode) {
			// The connection is intact; the request fails, not the worker.
			err = writeFrame(bw, &response{Err: err.Error()})
		}
		if err != nil {
			return
		}
	}
}

// handle executes one request. Operator and engine panics (bad record
// types, partition mismatches) become per-request errors, not worker
// deaths: the coordinator decides what to do with a failed op.
func (w *Worker) handle(req *request) (resp *response) {
	resp = &response{}
	defer func() {
		if r := recover(); r != nil {
			resp.Err = fmt.Sprintf("worker %s: %v", req.Op, r)
		}
	}()
	if err := w.dispatch(req, resp); err != nil {
		resp.Err = err.Error()
	}
	return resp
}

func (w *Worker) dispatch(req *request, resp *response) error {
	switch req.Op {
	case opPing:
		resp.HTTPAddr = w.HTTPAddr()
		return nil
	case opLoad:
		w.mu.Lock()
		defer w.mu.Unlock()
		// A scoped load (Only set — lineage replay) merges into what is
		// already resident; an unscoped load replaces the dataset
		// wholesale, so a retried Load after a reassignment cannot leave
		// stale partitions from the previous owner table behind.
		ds := w.data[req.Dataset]
		if ds == nil || len(req.Only) == 0 {
			ds = make(map[int][]any, len(req.Parts))
			w.data[req.Dataset] = ds
		}
		for _, p := range req.Parts {
			ds[p.Index] = p.Records
		}
		return nil
	case opApply:
		op, err := core.DecodeOp(req.OpKind, req.OpState)
		if err != nil {
			return fmt.Errorf("dist: decode op %q: %w", req.OpKind, err)
		}
		idx, coll, err := w.source(req.Source, req.Only)
		if err != nil {
			return err
		}
		out := core.MapOp(w.ctx, coll, op)
		w.putParts(req.Dataset, idx, out, len(req.Only) > 0)
		return nil
	case opZip:
		idxA, collA, err := w.source(req.Source, req.Only)
		if err != nil {
			return err
		}
		idxB, collB, err := w.source(req.Source2, req.Only)
		if err != nil {
			return err
		}
		if len(idxA) != len(idxB) {
			return fmt.Errorf("dist: zip %q(%d parts) with %q(%d parts)", req.Source, len(idxA), req.Source2, len(idxB))
		}
		for i := range idxA {
			if idxA[i] != idxB[i] {
				return fmt.Errorf("dist: zip partition index mismatch %d != %d", idxA[i], idxB[i])
			}
		}
		out := w.ctx.Zip(collA, collB, core.ConcatFeatures)
		w.putParts(req.Dataset, idxA, out, len(req.Only) > 0)
		return nil
	case opFetch:
		idx, coll, err := w.collection(req.Dataset)
		if err != nil {
			return err
		}
		resp.Parts = make([]partition, len(idx))
		for i, gi := range idx {
			resp.Parts[i] = partition{Index: gi, Records: coll.Partition(i)}
		}
		return nil
	case opFree:
		w.mu.Lock()
		delete(w.data, req.Dataset)
		w.mu.Unlock()
		return nil
	case opStats:
		w.mu.Lock()
		defer w.mu.Unlock()
		resp.Counts = make(map[string]int, len(w.data))
		for name, parts := range w.data {
			n := 0
			for _, recs := range parts {
				n += len(recs)
			}
			resp.Counts[name] = n
		}
		return nil
	case opServe:
		addr, err := w.serveRoute(req.Kind, req.Route, req.Ref)
		resp.HTTPAddr = addr
		return err
	default:
		return fmt.Errorf("dist: unknown op %q", req.Op)
	}
}

// collection snapshots a dataset as (sorted global indices, Collection
// with partitions in that order) — the shape every partitioned op works
// on.
func (w *Worker) collection(name string) ([]int, *engine.Collection, error) {
	return w.source(name, nil)
}

// source snapshots a dataset restricted to the given global partition
// indices (nil = everything resident, the fast path). A requested index
// that is not resident is an error — lineage replay must have merged
// the parent partitions in first.
func (w *Worker) source(name string, only []int) ([]int, *engine.Collection, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.data[name]
	if !ok {
		return nil, nil, fmt.Errorf("dist: no dataset %q", name)
	}
	var idx []int
	if only != nil {
		idx = append([]int(nil), only...)
		sort.Ints(idx)
		for _, gi := range idx {
			if _, ok := ds[gi]; !ok {
				return nil, nil, fmt.Errorf("dist: dataset %q: partition %d not resident", name, gi)
			}
		}
	} else {
		idx = make([]int, 0, len(ds))
		for i := range ds {
			idx = append(idx, i)
		}
		sort.Ints(idx)
	}
	parts := make([][]any, len(idx))
	for i, gi := range idx {
		parts[i] = ds[gi]
	}
	return idx, engine.FromPartitions(parts), nil
}

// putParts writes a computed collection back under the same global
// partition indices its input held. merge keeps whatever else the
// dataset already holds (the lineage-replay path); otherwise the
// dataset is replaced wholesale, which is what makes unscoped op
// retries idempotent.
func (w *Worker) putParts(name string, idx []int, coll *engine.Collection, merge bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ds := w.data[name]
	if ds == nil || !merge {
		ds = make(map[int][]any, len(idx))
		w.data[name] = ds
	}
	for i, gi := range idx {
		ds[gi] = coll.Partition(i)
	}
}

// serveRoute registers a route on the worker's serving replica from a
// registry artifact, via the binder registered for kind. Re-registering
// the same artifact is a no-op success — a lost wire response must be
// re-sendable — while a different artifact on a registered route is
// rejected (deploys of new artifacts go over HTTP).
func (w *Worker) serveRoute(kind, route, ref string) (string, error) {
	if w.srv == nil {
		return "", fmt.Errorf("dist: worker has no HTTP replica (start with HTTPListen)")
	}
	binder, ok := lookupServeKind(kind)
	if !ok {
		return "", fmt.Errorf("dist: no serve kind %q registered in this worker", kind)
	}
	w.mu.Lock()
	if cur, served := w.routes[route]; served {
		w.mu.Unlock()
		if cur == ref {
			return w.HTTPAddr(), nil
		}
		return w.HTTPAddr(), fmt.Errorf("dist: route %q already served (deploy new artifacts over HTTP)", route)
	}
	if w.store == nil {
		if w.regDir == "" {
			w.mu.Unlock()
			return "", fmt.Errorf("dist: worker has no registry dir (serve needs one)")
		}
		store, err := registry.Open(w.regDir)
		if err != nil {
			w.mu.Unlock()
			return "", fmt.Errorf("dist: open registry: %w", err)
		}
		w.store = store
	}
	store := w.store
	w.mu.Unlock()

	if err := binder(w.srv, store, route, ref); err != nil {
		return "", err
	}
	w.mu.Lock()
	w.routes[route] = ref
	w.mu.Unlock()
	return w.HTTPAddr(), nil
}

// replicaHTTP fronts the replica's serve.Server with one interception:
// a POST deploy for a route this worker has never registered, carrying a
// "kind" field, bootstrap-registers the route from the artifact via the
// kind's ServeBinder. That is how a worker that restarted empty (fresh
// serve.Server, no routes) is re-admitted by the router's rejoin
// redeploy instead of serving 404s until a manual wire deploy.
func (w *Worker) replicaHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if rest, ok := strings.CutPrefix(strings.TrimSuffix(r.URL.Path, "/"), "/routes/"); ok {
			if name, action, _ := strings.Cut(rest, "/"); action == "deploy" && !w.hasRoute(name) {
				w.bootstrapDeploy(rw, r, name)
				return
			}
		}
	}
	w.srv.ServeHTTP(rw, r)
}

func (w *Worker) hasRoute(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.routes[name]
	return ok
}

// bootstrapDeploy registers an unknown route from a deploy body that
// names its serve kind; without a kind the request falls through to the
// serve.Server for its ordinary 404.
func (w *Worker) bootstrapDeploy(rw http.ResponseWriter, r *http.Request, name string) {
	raw, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 1<<20))
	if err != nil {
		http.Error(rw, `{"error":"deploy body unreadable"}`, http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(raw))
	var body struct {
		Artifact string `json:"artifact"`
		Kind     string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &body); err != nil || body.Kind == "" || body.Artifact == "" {
		w.srv.ServeHTTP(rw, r) // not a bootstrap deploy; let serve answer
		return
	}
	if _, err := w.serveRoute(body.Kind, name, body.Artifact); err != nil {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // best-effort error body
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]string{ //nolint:errcheck // best-effort body
		"route": name, "artifact": body.Artifact, "status": "registered",
	})
}

// ServeBinder registers one route of a known pipeline shape on a
// replica server from a stored artifact — the typed glue (record types +
// codec) the type-erased wire cannot carry.
type ServeBinder func(srv *serve.Server, store serve.ArtifactStore, route, ref string) error

var (
	serveKindsMu sync.RWMutex
	serveKinds   = map[string]ServeBinder{}
)

// RegisterServeKind makes a pipeline shape servable by name via the
// wire serve op. cmd/keyworker registers "text"
// (Fitted[string, []float64] + serve.TextCodec); binaries embedding
// workers register their own kinds the same way.
func RegisterServeKind(kind string, b ServeBinder) {
	serveKindsMu.Lock()
	defer serveKindsMu.Unlock()
	serveKinds[kind] = b
}

func lookupServeKind(kind string) (ServeBinder, bool) {
	serveKindsMu.RLock()
	defer serveKindsMu.RUnlock()
	b, ok := serveKinds[kind]
	return b, ok
}
