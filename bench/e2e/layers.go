package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
	"keystoneml/keystone"
	"keystoneml/keystone/dist"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

// Shares of the measuring window the traced run's open-ended phases get;
// the layer probes between them run fixed, small repetition counts.
const (
	// Plain Fit calls (the base every share is taken against) alternating
	// with the same fit taken apart stage by stage, traced and untraced,
	// so machine drift hits all sides alike.
	traceFitShare     = 0.45
	traceDistFitShare = 0.10 // dist.Fit on the direct cluster (text-dist only)
	traceRouteShare   = 0.08 // Route.Predict, no codec, no HTTP
	traceHandlerShare = 0.08 // Server.ServeHTTP into a recorder
	traceHTTPShare    = 0.12 // real HTTP, as in the untraced run
	traceHopShare     = 0.05 // each of: one replica directly, and through the router (text-dist only)
)

// timed runs f n times, each under its own op and span, and returns the
// durations.
func (e *env[I]) timed(n int, layer, name string, f func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		id := e.tr.start(e.tr.newOp(), 0, 0, layer, name)
		t := time.Now()
		f()
		out[i] = time.Since(t)
		e.tr.end(id)
	}
	return out
}

// must records err as a failed operation of the probe named what.
func (e *env[I]) must(what string, err error) {
	e.res.Attempted++
	if err != nil {
		e.res.fail(what + ": " + err.Error())
	}
}

// mallocs returns how many heap objects f allocated (process-wide, so f
// must be the only thing running).
func mallocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

func medianMS(ds []time.Duration) float64 { return median(millis(ds)) }

// calibrate times a fixed single-threaded FLOP loop plus a fixed memory
// copy. It measures the machine, not the repository: two result sets
// whose runtime.calib_ms differ were taken on differently fast (or
// differently loaded) machines.
func calibrate(reps int) float64 {
	src := make([]float64, 4<<20) // 32 MB
	dst := make([]float64, len(src))
	for i := range src {
		src[i] = float64(i)
	}
	var sink float64
	run := func() {
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for i := 0; i < 30_000_000; i++ { // 240M FLOPs on four independent chains
			a0 = a0*1.0000001 + 0.5
			a1 = a1*0.9999999 + 0.5
			a2 = a2*1.0000002 + 0.5
			a3 = a3*0.9999998 + 0.5
		}
		sink += a0 + a1 + a2 + a3
		for r := 0; r < 4; r++ {
			copy(dst, src)
		}
	}
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t := time.Now()
		run()
		ds = append(ds, time.Since(t))
	}
	_ = sink
	return medianMS(ds)
}

// stagedFit is keystone's Fit taken apart at its layer boundaries — box
// the records, optimize a clone of the graph, execute the plan, assemble
// the fitted pipeline — with a span around each call. It builds the same
// optimizer configuration Fit's defaults produce.
type stagedFit struct {
	wall, box, optimize, execute time.Duration
	plan                         *optimizer.Plan
	report                       *core.ExecReport
	data                         *engine.Collection
}

func (e *env[I]) stagedFit() (stagedFit, *keystone.Fitted[I, []float64], error) {
	ctx := context.Background()
	var st stagedFit
	records, labels := e.train.Records, e.train.Labels
	runtime.GC() // as timedFit does before the plain fit this one is set against
	op := e.tr.newOp()
	root := e.tr.start(op, 0, 0, "keystone", "fit")
	defer e.tr.end(root)
	t0 := time.Now()

	id := e.tr.start(op, root, 0, "keystone", "box")
	parts := localPartitions(len(records))
	boxed := make([]any, len(records))
	for i, r := range records {
		boxed[i] = r
	}
	st.data = engine.FromSlice(boxed, parts)
	boxedLab := make([]any, len(labels))
	for i, l := range labels {
		boxedLab[i] = l
	}
	lab := engine.FromSlice(boxedLab, parts)
	e.tr.end(id)
	st.box = time.Since(t0)

	g, out := e.pipe.EngineGraph()
	g = g.Clone()
	g.Sink = g.Nodes[out.ID]

	id = e.tr.start(op, root, 0, "optimizer", "optimize")
	t := time.Now()
	plan, err := optimizer.OptimizeContext(ctx, g, st.data, lab, optimizer.Config{
		Level:      optimizer.LevelFull,
		Resources:  cluster.Local(8),
		NumClasses: len(labels[0]),
	})
	st.optimize = time.Since(t)
	e.tr.end(id)
	if err != nil {
		return st, nil, fmt.Errorf("optimize: %w", err)
	}

	id = e.tr.start(op, root, 0, "core", "execute")
	t = time.Now()
	models, _, report, err := plan.ExecuteContext(ctx, st.data, lab, 0, plan.DefaultCache(0))
	st.execute = time.Since(t)
	e.tr.end(id)
	if err != nil {
		return st, nil, fmt.Errorf("execute: %w", err)
	}
	fitted := keystone.NewEngineFitted[I, []float64](core.NewFitted(plan.Graph, models, engine.NewContext(0)), keystone.FitInfo{})
	st.wall = time.Since(t0)
	st.plan, st.report = plan, report
	return st, fitted, nil
}

// execCounts sums an execution report: how often nodes computed, hit the
// cache or coalesced, what share of node time the estimators took, and
// the solver node's name and time.
type execCounts struct {
	computes, hits, coalesced float64
	estimatorShare            float64
	solver                    string
	solverTime                time.Duration
}

func countExec(rep *core.ExecReport) execCounts {
	var c execCounts
	var total, est time.Duration
	for _, n := range rep.Nodes {
		c.computes += float64(n.Computes)
		c.hits += float64(n.Hits)
		c.coalesced += float64(n.Coalesced)
		total += n.Time
		if n.Kind == core.KindEstimator {
			est += n.Time
		}
		if strings.HasPrefix(n.Name, "solver.") {
			c.solver, c.solverTime = n.Name, n.Time
		}
	}
	if total > 0 {
		c.estimatorShare = float64(est) / float64(total)
	}
	return c
}

// fitLayers measures the fit side: plain fits for the base, staged fits
// for the per-layer split, and the engine's per-record floor. It returns
// the last plain fit's model and the plain fits' median wall time.
func (e *env[I]) fitLayers() (fitted *keystone.Fitted[I, []float64], fitWall float64, err error) {
	res := e.res
	local := func(ctx context.Context) (*keystone.Fitted[I, []float64], error) {
		return e.pipe.Fit(ctx, e.train.Records, e.train.Labels)
	}
	// Each plain fit is paired with the staged fits that follow it, and
	// shares are taken pair by pair: they run within seconds of each
	// other, so a slow stretch of the machine hits all of them. The staged
	// fit runs twice, with the tracer recording and with it off (in
	// alternating order), which is what recording the spans costs.
	var pub fitSamples
	var plain []time.Duration        // plain[i] pairs with staged[i] and untraced[i]
	var staged, untraced []stagedFit // tracer on, tracer off
	var counts []execCounts
	stagedChecked := func(traced bool) (stagedFit, error) {
		tr := e.tr
		if !traced {
			e.tr = nil
		}
		st, sf, err := e.stagedFit()
		e.tr = tr
		e.must("staged fit", err)
		if err == nil {
			// The split only attributes Fit's time if it is Fit's computation.
			err = e.checkModel(sf)
			e.must("staged fit reproduces Fit", err)
		}
		return st, err
	}
	repeat(e.budget(traceFitShare), e.sz.minFits, func() time.Duration {
		f, d := e.timedFit(&pub, local)
		if f != nil {
			fitted = f
		}
		tracedFirst := len(pub.wall)%2 == 1
		a, errA := stagedChecked(tracedFirst)
		b, errB := stagedChecked(!tracedFirst)
		if f != nil && errA == nil && errB == nil {
			on, off := a, b
			if !tracedFirst {
				on, off = b, a
			}
			plain, staged, untraced = append(plain, d), append(staged, on), append(untraced, off)
			counts = append(counts, countExec(on.report))
		}
		return d + a.wall + b.wall
	})
	if len(staged) == 0 {
		return nil, 0, fmt.Errorf("no plain fit with both its staged fits succeeded")
	}
	fitWall = median(seconds(pub.wall))
	res.set(perLayer, "runtime.fit_mallocs", median(pub.mallocs), len(pub.mallocs))
	res.set(perLayer, "runtime.gc_pause_ms_per_fit", median(pub.pauseMS), len(pub.pauseMS))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set(perLayer, "runtime.peak_heap_mb", float64(ms.HeapSys)/1e6, 0)

	n := len(staged)
	pick := func(f func(i int) float64) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return median(xs)
	}
	res.set(perLayer, "keystone.fit_box_s", pick(func(i int) float64 { return staged[i].box.Seconds() }), n)
	res.set(perLayer, "optimizer.optimize_s", pick(func(i int) float64 { return staged[i].optimize.Seconds() }), n)
	exe := pick(func(i int) float64 { return staged[i].execute.Seconds() })
	res.set(perLayer, "core.execute_s", exe, n)
	res.set(perLayer, "keystone.fit_unattributed_share", pick(func(i int) float64 {
		return 1 - (staged[i].box+staged[i].optimize+staged[i].execute).Seconds()/plain[i].Seconds()
	}), n)
	res.set(perLayer, "optimizer.optimize_share", pick(func(i int) float64 { return staged[i].optimize.Seconds() / plain[i].Seconds() }), n)
	res.set(perLayer, "trace.overhead_share", pick(func(i int) float64 { return staged[i].wall.Seconds()/untraced[i].wall.Seconds() - 1 }), n)
	last := staged[n-1]
	res.set(perLayer, "optimizer.cache_set_size", float64(len(last.plan.CacheSet)), 0)
	res.set(perLayer, "optimizer.cse_merged", float64(last.plan.CSEMerged), 0)
	res.set(perLayer, "core.node_computes", pick(func(i int) float64 { return counts[i].computes }), n)
	res.set(perLayer, "core.cache_hits", pick(func(i int) float64 { return counts[i].hits }), n)
	res.set(perLayer, "core.coalesced", pick(func(i int) float64 { return counts[i].coalesced }), n)
	res.set(perLayer, "core.estimator_time_share", pick(func(i int) float64 { return counts[i].estimatorShare }), n)
	res.set(perLayer, "solvers.fit_s", pick(func(i int) float64 { return counts[i].solverTime.Seconds() }), n)
	res.note("solvers.chosen", counts[n-1].solver)
	// Cross-check against the program's own account of the same stage.
	res.note("core.execute_s vs Fitted.Info().TrainTime",
		fmt.Sprintf("%.4fs measured from outside, %.4fs reported by the last plain fit", exe, fitted.Info().TrainTime.Seconds()))

	// The per-record dataflow floor: an identity Map over the boxed
	// training collection.
	data, ectx := last.data, engine.NewContext(0)
	var mapAllocs float64
	ds := e.timed(e.sz.probeReps, "engine", "map identity", func() {
		mapAllocs = mallocs(func() { ectx.Map(data, func(x any) any { return x }) })
	})
	nrec := float64(len(e.train.Records))
	res.set(perLayer, "engine.map_ns_per_rec", median(seconds(ds))*1e9/nrec, len(ds))
	res.set(perLayer, "engine.map_allocs_per_rec", mapAllocs/nrec, 0)
	return fitted, fitWall, nil
}

// kernelLayers times the linalg kernels at the workload's own shapes.
func (e *env[I]) kernelLayers() {
	rng := linalg.NewRNG(0xbe7c4)
	m, k, n := e.s.gemm[0], e.s.gemm[1], e.s.gemm[2]
	a, b := rng.GaussianMatrix(m, k), rng.GaussianMatrix(k, n)
	ds := e.timed(e.sz.probeReps, "linalg", fmt.Sprintf("gemm %dx%dx%d", m, k, n), func() { a.Mul(b) })
	e.res.set(perLayer, "linalg.gemm_gflops", 2*float64(m)*float64(k)*float64(n)/median(seconds(ds))/1e9, len(ds))

	rows, cols := e.s.gemv[0], e.s.gemv[1]
	w, x := rng.GaussianMatrix(rows, cols), rng.GaussianVector(cols)
	const calls = 200 // per timed repetition: one call is too short to time alone
	ds = e.timed(e.sz.probeReps, "linalg", fmt.Sprintf("gemv %dx%d x%d", rows, cols, calls), func() {
		for i := 0; i < calls; i++ {
			w.MulVec(x)
		}
	})
	e.res.set(perLayer, "linalg.gemv_us", median(seconds(ds))*1e6/calls, len(ds))

	spmm := 0.0
	if nnz := e.s.spmmNNZ; nnz > 0 {
		const srows = 2000
		vecs := make([]*linalg.SparseVector, srows)
		for i := range vecs {
			idx := rng.Perm(cols)[:nnz]
			sort.Ints(idx)
			vecs[i] = linalg.NewSparseVector(cols, idx, rng.GaussianVector(nnz))
		}
		sm, dense := linalg.NewSparseMatrixFromRows(vecs), rng.GaussianMatrix(cols, rows)
		ds = e.timed(e.sz.probeReps, "linalg", fmt.Sprintf("spmm %dx%d nnz/row %d", srows, cols, nnz), func() { sm.MulDense(dense) })
		spmm = 2 * float64(sm.NNZ()) * float64(rows) / median(seconds(ds)) / 1e9
	}
	e.res.set(perLayer, "linalg.spmm_gflops", spmm, e.sz.probeReps)
}

// applyLayers measures the fitted pipeline's two apply paths and the
// artifact codec, and returns the median in-process time, in ms, of one
// request's records (the compute inside a served request).
func (e *env[I]) applyLayers(f *keystone.Fitted[I, []float64]) float64 {
	ctx, res := context.Background(), e.res
	recs := e.hold.Records
	if len(recs) > 400 {
		recs = recs[:400]
	}
	// One span covers the loop; the calls are too many and too short to
	// trace one by one.
	id := e.tr.start(e.tr.newOp(), 0, 0, "keystone", fmt.Sprintf("Transform x%d", len(recs)))
	ones := make([]time.Duration, len(recs))
	oneAllocs := mallocs(func() {
		for i, r := range recs {
			t := time.Now()
			out, err := f.Transform(ctx, r)
			ones[i] = time.Since(t)
			if err != nil || sameBits([][]float64{out}, e.expect[i:i+1]) != nil {
				res.fail("Transform differs from the reference")
			}
		}
	})
	e.tr.end(id)
	res.Attempted += len(recs)
	oneUS := median(seconds(ones)) * 1e6
	res.set(perLayer, "keystone.transform_one_us", oneUS, len(ones))
	res.set(perLayer, "keystone.transform_one_allocs", oneAllocs/float64(len(recs)), 0)

	var batchAllocs float64
	ds := e.timed(e.sz.probeReps, "keystone", fmt.Sprintf("TransformBatch %d", len(e.hold.Records)), func() {
		batchAllocs = mallocs(func() {
			_, err := f.TransformBatch(ctx, e.hold.Records)
			e.must("TransformBatch", err)
		})
	})
	nh := float64(len(e.hold.Records))
	batchUS := median(seconds(ds)) * 1e6 / nh
	res.set(perLayer, "keystone.transform_batch_us_per_rec", batchUS, len(ds))
	res.set(perLayer, "keystone.transform_batch_allocs_per_rec", batchAllocs/nh, 0)
	res.set(perLayer, "keystone.batch_speedup", oneUS/batchUS, 0)
	res.note("keystone.batch_speedup base", fmt.Sprintf("transform_one_us %.3f / transform_batch_us_per_rec %.3f", oneUS, batchUS))

	var blob []byte
	ds = e.timed(e.sz.probeReps, "keystone", "Encode", func() {
		var err error
		blob, err = keystone.Encode(f)
		e.must("Encode", err)
	})
	res.set(perLayer, "keystone.artifact_encode_ms", medianMS(ds), len(ds))
	res.set(perLayer, "keystone.artifact_bytes", float64(len(blob)), 0)
	ds = e.timed(e.sz.probeReps, "keystone", "Decode", func() {
		_, err := keystone.Decode[I, []float64](blob)
		e.must("Decode", err)
	})
	res.set(perLayer, "keystone.artifact_decode_ms", medianMS(ds), len(ds))

	// What a served request computes: its records through the pipeline.
	var per []time.Duration
	for i := 0; i < min(len(e.reqs), 50); i++ {
		r := &e.reqs[i]
		t := time.Now()
		if e.s.batch > 1 {
			_, _ = f.TransformBatch(ctx, r.recs)
		} else {
			_, _ = f.Transform(ctx, r.recs[0])
		}
		per = append(per, time.Since(t))
	}
	return medianMS(per)
}

// deployLayers measures the write side of serving — registry store and
// load, and the route's hot-swap — and leaves the route registered.
func (e *env[I]) deployLayers(f *keystone.Fitted[I, []float64]) (id string, err error) {
	res := e.res
	// Storing bytes a registry already holds is a no-op, so every
	// repetition stores into an empty registry of its own; the last one is
	// e.regDir, which the route (and the dist workers) then load from.
	var reg *registry.Registry
	dirs := []string{e.regDir}
	for len(dirs) < e.sz.probeReps {
		dirs = append(dirs, filepath.Join(e.tmp, fmt.Sprintf("registry-%d", len(dirs))))
	}
	ds := e.timed(e.sz.probeReps, "registry", "Store", func() {
		dir := dirs[len(dirs)-1]
		dirs = dirs[:len(dirs)-1]
		if reg, err = registry.Open(dir); err == nil {
			id, err = registry.Store(reg, f, e.s.route+".bench")
		}
		e.must("registry.Store", err)
	})
	if err != nil {
		return "", err
	}
	res.set(perLayer, "registry.store_ms", medianMS(ds), len(ds))
	var loaded *keystone.Fitted[I, []float64]
	ds = e.timed(e.sz.probeReps, "registry", "Load", func() {
		loaded, _, err = registry.Load[I, []float64](reg, id)
		e.must("registry.Load", err)
	})
	if err != nil {
		return "", err
	}
	res.set(perLayer, "registry.load_ms", medianMS(ds), len(ds))

	if e.route, err = serve.Register(e.srv, e.s.route, loaded, e.s.codec); err != nil {
		return "", err
	}
	ds = e.timed(e.sz.probeReps, "serve", "Route.Deploy", func() {
		_, err := e.route.Deploy(context.Background(), loaded)
		e.must("Route.Deploy", err)
	})
	res.set(perLayer, "serve.deploy_ms", medianMS(ds), len(ds))
	return id, nil
}

// routeCounter reads a cumulative counter out of the route's stats.
func (e *env[I]) routeCounter(key string) float64 {
	v, _ := e.srv.RouteStats(e.s.route)[key].(int64)
	return float64(v)
}

// serveLayers walks the request path from the inside out: codec alone,
// the route alone, the handler without a network, then real HTTP.
func (e *env[I]) serveLayers(computeMS float64) {
	res := e.res
	r := &e.reqs[0]
	ds := e.timed(e.sz.codecCalls, "serve", "codec decode", func() {
		var err error
		if e.s.batch > 1 {
			_, err = e.s.codec.DecodeBatch(r.body)
		} else {
			_, err = e.s.codec.DecodeRequest(r.body)
		}
		e.must("codec decode", err)
	})
	res.set(perLayer, "serve.decode_us", median(seconds(ds))*1e6, len(ds))
	ds = e.timed(e.sz.codecCalls, "serve", "codec encode", func() {
		var body any = e.s.codec.Response(r.expect[0])
		if e.s.batch > 1 {
			results := make([]any, len(r.expect))
			for i, out := range r.expect {
				results[i] = e.s.codec.Response(out)
			}
			body = map[string]any{"results": results}
		}
		e.must("codec encode", json.NewEncoder(io.Discard).Encode(body))
	})
	res.set(perLayer, "serve.encode_us", median(seconds(ds))*1e6, len(ds))

	runtime.GC()
	route := summarize(e.closedLoop(e.budget(traceRouteShare), "Route.Predict", "serve", e.throughRoute))
	res.set(perLayer, "serve.route_predict_ms", route.p50, route.n)
	res.set(perLayer, "serve.batch_wait_ms", route.p50-computeMS, 0)

	var handler latencyStats
	handlerAllocs := mallocs(func() {
		handler = summarize(e.closedLoop(e.budget(traceHandlerShare), "Server.ServeHTTP", "serve", e.throughHandler))
	})
	res.set(perLayer, "serve.handler_ms", handler.p50, handler.n)
	res.set(perLayer, "serve.allocs_per_req", handlerAllocs/float64(max(handler.n, 1)), 0)

	batches0, records0 := e.routeCounter("batches"), e.routeCounter("records")
	client := summarize(e.closedLoop(e.budget(traceHTTPShare), "request", "client", e.overHTTP(e.local.url)))
	batches, records := e.routeCounter("batches")-batches0, e.routeCounter("records")-records0
	res.set(perLayer, "serve.http_overhead_ms", client.p50-handler.p50, client.n)
	res.set(perLayer, "serve.client_p99_ms", client.p99, client.n)
	res.set(perLayer, "serve.batches", batches, 0)
	mean := 0.0
	if batches > 0 {
		mean = records / batches
	}
	res.set(perLayer, "serve.mean_batch_size", mean, 0)
	res.set(perLayer, "serve.shed", float64(e.route.Shed()), 0)
	res.note("serve.client_p50_ms", fmt.Sprintf("%.4f (n=%d, highest supported percentile p%v)", client.p50, client.n, highestSupported(client.n)))
	if p := highestSupported(client.n); p < 99 {
		res.note("serve.client_p99_ms support", fmt.Sprintf("only p%v has ten samples beyond it at n=%d; read p99 as indicative", p, client.n))
	}
}

// countingProxy forwards TCP connections to target and counts the bytes
// crossing it in both directions.
type countingProxy struct {
	ln    net.Listener
	bytes atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			p.wg.Add(2)
			go p.pipe(out, in)
			go p.pipe(in, out)
		}
	}()
	return p, nil
}

// countedConn adds every byte written through it to the proxy's total.
type countedConn struct {
	net.Conn
	total *atomic.Int64
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.total.Add(int64(n))
	return n, err
}

func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(countedConn{dst, &p.bytes}, src) // ends when either side closes
	dst.Close()                                     // unblock the opposite direction
}

func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// distLayers measures what placement costs: the same fit on the direct
// cluster against the local fit of this run, the bytes one fit puts on
// the wire, and the router hop in front of a replica.
func (e *env[I]) distLayers(id string, localFit float64) error {
	res := e.res
	addrs := e.cl.Addrs()
	ds := e.timed(3, "dist", "Connect", func() {
		cl, err := dist.Connect(addrs...)
		e.must("dist.Connect", err)
		if err == nil {
			_ = cl.Close()
		}
	})
	res.set(perLayer, "dist.connect_s", median(seconds(ds)), len(ds))

	opts := dist.FitOptions{Partitions: localPartitions(len(e.train.Records))}
	var reps []*dist.Report
	// fitOn times one dist.Fit over cl from a collected heap, like the
	// local fits it is set against, and checks the model afterwards.
	fitOn := func(cl *dist.Cluster, name string) time.Duration {
		var f *keystone.Fitted[I, []float64]
		var rep *dist.Report
		var err error
		runtime.GC()
		d := e.timed(1, "dist", name, func() {
			f, rep, err = dist.Fit(context.Background(), cl, e.pipe, e.train.Records, e.train.Labels, opts)
		})[0]
		e.must("dist.Fit", err)
		if err == nil {
			e.must("dist fit reproduces the local fit", e.checkModel(f))
			reps = append(reps, rep)
		}
		return d
	}
	var walls []time.Duration
	repeat(e.budget(traceDistFitShare), e.sz.minFits, func() time.Duration {
		d := fitOn(e.cl, "Fit")
		walls = append(walls, d)
		return d
	})
	if len(reps) == 0 {
		return fmt.Errorf("no dist fit succeeded")
	}
	pick := func(f func(r *dist.Report) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	res.set(perLayer, "dist.optimize_s", pick(func(r *dist.Report) float64 { return r.OptimizeTime.Seconds() }), len(reps))
	res.set(perLayer, "dist.train_s", pick(func(r *dist.Report) float64 { return r.TrainTime.Seconds() }), len(reps))
	res.set(perLayer, "dist.model_ratio", pick(func(r *dist.Report) float64 { return r.ModeledMakespan / r.TrainTime.Seconds() }), len(reps))
	res.note("dist.model_ratio base", fmt.Sprintf("ModeledMakespan %.4fs / TrainTime %.4fs (last fit)",
		reps[len(reps)-1].ModeledMakespan, reps[len(reps)-1].TrainTime.Seconds()))
	recoveries := 0
	for _, r := range reps {
		recoveries += r.Recoveries
	}
	res.set(perLayer, "dist.recoveries", float64(recoveries), 0)
	if recoveries > 0 {
		res.fail(fmt.Sprintf("%d dist recoveries on a healthy cluster", recoveries))
	}
	res.set(perLayer, "dist.placement_overhead_s", median(seconds(walls))-localFit, len(walls))
	res.note("dist.placement_overhead_s base", fmt.Sprintf("dist.Fit %.4fs - local Fit %.4fs", median(seconds(walls)), localFit))

	// Wire volume: the same fit through byte-counting proxies. The proxy
	// slows the fit, so these fits are counted, not timed.
	proxies := make([]*countingProxy, len(addrs))
	paddrs := make([]string, len(addrs))
	for i, a := range addrs {
		p, err := startProxy(a)
		if err != nil {
			return err
		}
		defer p.close()
		proxies[i], paddrs[i] = p, p.ln.Addr().String()
	}
	pcl, err := dist.Connect(paddrs...)
	if err != nil {
		return err
	}
	defer pcl.Close()
	wire := func() float64 {
		var n int64
		for _, p := range proxies {
			n += p.bytes.Load()
		}
		return float64(n)
	}
	var perFit []float64
	for i := 0; i < e.sz.minFits; i++ {
		before := wire()
		fitOn(pcl, "Fit via counting proxy")
		perFit = append(perFit, (wire()-before)/1e6)
	}
	res.set(perLayer, "dist.wire_mb_per_fit", median(perFit), len(perFit))

	// The router hop: the same requests to one replica directly, then
	// through the consistent-hash router.
	base, err := e.deployReplicas(id)
	if err != nil {
		return err
	}
	runtime.GC()
	direct := summarize(e.closedLoop(e.budget(traceHopShare), "request to replica", "client", e.overHTTP(e.replicas[0])))
	routed := summarize(e.closedLoop(e.budget(traceHopShare), "request via router", "dist", e.overHTTP(base)))
	res.set(perLayer, "dist.router_hop_ms", routed.p50-direct.p50, routed.n)
	res.note("dist.router_hop_ms base", fmt.Sprintf("routed p50 %.4f ms - direct replica p50 %.4f ms", routed.p50, direct.p50))
	return nil
}

// tracedRun is the per-layer measurement: one set-up, then every layer's
// exported entry points timed from outside at the workload's own shapes,
// with a span around each call, flushed as a Chrome trace at the end.
func tracedRun[I any](s *spec[I], cfg runConfig, res *result) error {
	for _, d := range perLayer {
		res.set(perLayer, d.name, 0, 0) // metrics that do not apply to this workload read 0
	}
	res.set(perLayer, "linalg.crossover_probe_s", kernelProbe().Seconds(), 1)
	reps := cfg.sizing().probeReps
	res.set(perLayer, "runtime.calib_ms", calibrate(reps), reps)

	e, err := setup(s, cfg, res)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	e.tr = newTracer()
	if err := e.prepare(); err != nil {
		return err
	}
	res.set(perLayer, "quality", keystone.Accuracy(e.expect, e.hold.Truth), 0)

	fitted, fitWall, err := e.fitLayers()
	if err != nil {
		return err
	}
	e.kernelLayers()
	compute := e.applyLayers(fitted)
	id, err := e.deployLayers(fitted)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	e.serveLayers(compute)
	if s.dist {
		if err := e.distLayers(id, fitWall); err != nil {
			return fmt.Errorf("dist layers: %w", err)
		}
	}
	res.set(perLayer, "failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), 0)

	path := filepath.Join(cfg.outDir, "trace_"+s.name+".json")
	if err := e.tr.writeChrome(path, s.name); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.note("trace", path)
	fmt.Fprintf(os.Stderr, "e2e: wrote %s\n", path)
	return nil
}
