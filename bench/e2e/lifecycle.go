package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/keystone"
	"keystoneml/keystone/dist"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

// runConfig is one invocation's settings, straight from the flags.
type runConfig struct {
	seed    uint64
	seconds float64 // measuring window, split between the phases by the shares below
	trace   bool
	smoke   bool   // tiny data, everything once: set by the tests only
	outDir  string // scratch (registry) and trace files; created on demand
}

// Shares of the measuring window each phase of the untraced run gets.
// Every phase repeats one operation until its share is spent, so a faster
// program takes more samples instead of finishing early. The window is
// spent in rounds — fit, transform, serve, and again — because this class
// of machine changes speed for seconds at a time: with the phases
// interleaved every metric has samples from the whole run, and its median
// is that of the run, not of the seconds its phase happened to get.
const (
	fitShare       = 0.50
	transformShare = 0.08
	serveShare     = 0.40

	// distWorkers is the text-dist cluster size.
	distWorkers = 2
)

// sizing is how often the count-boxed parts of a run repeat.
type sizing struct {
	// setupReps is how often set-up runs per process; setup_s is the
	// median of the repetitions plus the once-per-process kernel probe.
	setupReps int
	// rounds is how many fit / transform / serve rounds the window is
	// spent in.
	rounds int
	// fitsPerRound is how many fits a round runs at least, however short
	// the window: 4 x 2 keeps eight samples under fit_s on vision-dag,
	// whose fit share would buy five. (Twelve, ISSUE 11's count, would put
	// the driver's 92 runs at 87 % of its time limit.)
	fitsPerRound int
	// minFits is the least the traced run's open-ended fit loops run,
	// probeReps how often each of its fixed-count layer probes repeats,
	// codecCalls how often the request codec is called.
	minFits, probeReps, codecCalls int
}

// sizing of a run: the benchmark's, or once of everything for the smoke
// tests.
func (c runConfig) sizing() sizing {
	if c.smoke {
		return sizing{setupReps: 1, rounds: 1, fitsPerRound: 1, minFits: 1, probeReps: 1, codecCalls: 10}
	}
	return sizing{setupReps: 3, rounds: 4, fitsPerRound: 2, minFits: 5, probeReps: 5, codecCalls: 200}
}

// clients is the number of closed-loop load generators: two keep-alive
// connections, never more than the machine has cores. They are goroutines
// of this process and share its one P (see main) with the server they load.
func clients() int { return min(2, runtime.NumCPU()) }

// localPartitions is the partition count keystone.Fit uses by default.
// text-dist passes it to dist.Fit — its one non-default option — because
// a model is bit-identical across placements only under equal
// partitioning, and dist.Fit's own default (2 x workers) differs.
func localPartitions(n int) int { return min(runtime.NumCPU(), n) }

var (
	probeOnce sync.Once
	probeTime time.Duration
)

// kernelProbe runs the kernel-crossover microbenchmarks the first Fit of
// a process would otherwise pay for, and returns what they cost. Later
// calls in the same process return the same figure.
func kernelProbe() time.Duration {
	probeOnce.Do(func() {
		t := time.Now()
		cluster.InstallKernelCrossover()
		probeTime = time.Since(t)
	})
	return probeTime
}

func init() {
	// The serve kind dist workers boot "text" routes with (what
	// cmd/keyworker registers for real worker processes).
	dist.RegisterServeKind("text", func(srv *serve.Server, store serve.ArtifactStore, route, ref string) error {
		_, err := serve.RegisterArtifact[string, []float64](srv, route, store, ref, textCodec)
		return err
	})
}

// front is an HTTP listener on a loopback port serving one handler.
type front struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return f, nil
}

func (f *front) close() {
	_ = f.hs.Close()
	<-f.done
}

// env is one set-up system under test: data, reference model, and the
// booted serving tier (local server, or workers + cluster for dist).
type env[I any] struct {
	s   *spec[I]
	cfg runConfig
	sz  sizing
	res *result
	tr  *tracer

	pipe        *keystone.Pipeline[I, []float64]
	train, hold keystone.Dataset[I]
	// ref is the warm-up fit: every later fit, transform and response
	// must reproduce its holdout scores bit for bit.
	ref    *keystone.Fitted[I, []float64]
	expect [][]float64
	reqs   []request[I]

	tmp    string
	regDir string
	srv    *serve.Server // the local serving tier, on the front `local`
	local  *front
	route  *serve.Route[I, []float64]

	workers  []*dist.Worker
	cl       *dist.Cluster
	router   *dist.Router
	routed   *front // the replica router's listener, once deployed
	replicas []string

	client *http.Client
}

// setup generates the data from the seed, boots the serving tier and
// runs the untimed warm-up fit(s). The caller times the whole call.
func setup[I any](s *spec[I], cfg runConfig, res *result) (e *env[I], err error) {
	e = &env[I]{s: s, cfg: cfg, sz: cfg.sizing(), res: res}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	nTrain, nHold := s.train, s.holdout
	if cfg.smoke {
		nTrain, nHold = s.smokeTrain, s.smokeHoldout
	}
	e.train = s.data(nTrain, cfg.seed)
	e.hold = s.data(nHold, cfg.seed+1)
	e.pipe = s.pipe()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return e, err
	}
	if e.tmp, err = os.MkdirTemp(cfg.outDir, "run-"); err != nil {
		return e, err
	}
	e.regDir = filepath.Join(e.tmp, "registry")
	e.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients(), MaxConnsPerHost: clients()},
		Timeout:   30 * time.Second,
	}

	e.srv = serve.NewServer()
	if e.local, err = listen(e.srv); err != nil {
		return e, err
	}
	if s.dist {
		addrs := make([]string, distWorkers)
		for i := range addrs {
			w, err := dist.StartWorker(dist.WorkerOptions{
				Listen: "127.0.0.1:0", HTTPListen: "127.0.0.1:0", RegistryDir: e.regDir, Parallelism: 1})
			if err != nil {
				return e, err
			}
			e.workers = append(e.workers, w)
			addrs[i] = w.Addr()
		}
		if e.cl, err = dist.Connect(addrs...); err != nil {
			return e, err
		}
	}

	// The reference is always a local fit, so text-dist's digest is
	// checked against exactly what text-single serves.
	if e.ref, err = e.pipe.Fit(context.Background(), e.train.Records, e.train.Labels); err != nil {
		return e, fmt.Errorf("warm-up fit: %w", err)
	}
	if s.dist {
		if _, err = e.fit(context.Background()); err != nil {
			return e, fmt.Errorf("warm-up dist fit: %w", err)
		}
	}
	return e, nil
}

// close stops everything setup and deploy started and waits for it.
func (e *env[I]) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, f := range []*front{e.local, e.routed} {
		if f != nil {
			f.close()
		}
	}
	if e.router != nil {
		e.router.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cl != nil {
		_ = e.cl.Close()
	}
	for _, w := range e.workers {
		_ = w.Close()
		w.Wait()
	}
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp)
	}
}

// fit is one full fit the way the workload places it.
func (e *env[I]) fit(ctx context.Context) (*keystone.Fitted[I, []float64], error) {
	if !e.s.dist {
		return e.pipe.Fit(ctx, e.train.Records, e.train.Labels)
	}
	f, rep, err := dist.Fit(ctx, e.cl, e.pipe, e.train.Records, e.train.Labels,
		dist.FitOptions{Partitions: localPartitions(len(e.train.Records))})
	if err != nil {
		return nil, err
	}
	if rep.Recoveries > 0 {
		return nil, fmt.Errorf("dist fit needed %d recoveries on a healthy cluster", rep.Recoveries)
	}
	return f, nil
}

// digest hashes score vectors by their float64 bits.
func digest(scores [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range scores {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d score vectors, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("record %d: %d scores, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("record %d score %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// prepare computes what every later output is checked against — the
// reference model's holdout scores, record by record — and the request
// bodies. Untimed.
func (e *env[I]) prepare() error {
	ctx := context.Background()
	e.expect = make([][]float64, len(e.hold.Records))
	for i, rec := range e.hold.Records {
		out, err := e.ref.Transform(ctx, rec)
		if err != nil {
			return fmt.Errorf("reference transform: %w", err)
		}
		e.expect[i] = out
	}
	e.res.PredDigest = digest(e.expect)
	e.res.Attempted++
	if err := e.checkModel(e.ref); err != nil {
		e.res.fail("TransformBatch differs from Transform: " + err.Error())
	}
	var err error
	e.reqs, err = buildRequests(e.s, e.hold.Records, e.expect)
	return err
}

// checkModel verifies a fitted model reproduces the reference holdout
// scores through TransformBatch.
func (e *env[I]) checkModel(f *keystone.Fitted[I, []float64]) error {
	out, err := f.TransformBatch(context.Background(), e.hold.Records)
	if err != nil {
		return err
	}
	return sameBits(out, e.expect)
}

// repeat runs op until the next repetition would overrun budget, and at
// least minN times; op times itself so checks can sit outside the
// measured interval.
func repeat(budget time.Duration, minN int, op func() time.Duration) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for {
		d := op()
		out = append(out, d)
		if len(out) >= minN && time.Since(start)+d > budget {
			return out
		}
	}
}

func (e *env[I]) budget(share float64) time.Duration {
	return time.Duration(share * e.cfg.seconds * float64(time.Second))
}

// fitSamples is what the fit phase measures per fit.
type fitSamples struct {
	wall    []time.Duration
	allocMB []float64
	mallocs []float64
	pauseMS []float64
}

// timedFit runs one fit, appends what it cost to fs, and checks the
// model against the reference outside the timed interval. It returns nil
// for a fit that failed either way. Every fit starts from a collected
// heap, so that each meets the same number of GC cycles.
func (e *env[I]) timedFit(fs *fitSamples, fit func(context.Context) (*keystone.Fitted[I, []float64], error)) (*keystone.Fitted[I, []float64], time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	f, err := fit(context.Background())
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	fs.wall = append(fs.wall, d)
	fs.allocMB = append(fs.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	fs.mallocs = append(fs.mallocs, float64(m1.Mallocs-m0.Mallocs))
	fs.pauseMS = append(fs.pauseMS, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	e.res.Attempted++
	if err != nil {
		e.res.fail("fit: " + err.Error())
		return nil, d
	}
	if err := e.checkModel(f); err != nil {
		e.res.fail("fit is not bit-identical to the reference: " + err.Error())
		return nil, d
	}
	return f, d
}

// timedTransform times one TransformBatch over the whole holdout set,
// appends its records/s to rates, and checks the scores.
func (e *env[I]) timedTransform(rates *[]float64, f *keystone.Fitted[I, []float64]) time.Duration {
	runtime.GC()
	t := time.Now()
	out, err := f.TransformBatch(context.Background(), e.hold.Records)
	d := time.Since(t)
	e.res.Attempted++
	if err != nil {
		e.res.fail("transform: " + err.Error())
	} else if err := sameBits(out, e.expect); err != nil {
		e.res.fail("transform: " + err.Error())
	}
	*rates = append(*rates, float64(len(e.hold.Records))/d.Seconds())
	return d
}

// deploy publishes f the way the workload serves it: into the registry,
// back out of it, and onto a route — the local server's, or (dist) every
// worker's replica behind the consistent-hash router. It returns the base
// URL clients post to.
func (e *env[I]) deploy(f *keystone.Fitted[I, []float64]) (string, error) {
	e.res.Attempted++
	reg, err := registry.Open(e.regDir)
	if err != nil {
		return "", err
	}
	id, err := registry.Store(reg, f, e.s.route+".bench")
	if err != nil {
		return "", err
	}
	if e.s.dist {
		return e.deployReplicas(id)
	}
	loaded, _, err := registry.Load[I, []float64](reg, id)
	if err != nil {
		return "", err
	}
	e.route, err = serve.Register(e.srv, e.s.route, loaded, e.s.codec)
	return e.local.url, err
}

// deployReplicas boots the route from artifact id on every worker's
// serving replica and fronts them with the router.
func (e *env[I]) deployReplicas(id string) (string, error) {
	var err error
	if e.replicas, err = e.cl.ServeRoute(e.s.route, e.s.route, id); err != nil {
		return "", err
	}
	if e.router, err = dist.NewRouter(dist.RouterOptions{Replicas: e.replicas}); err != nil {
		return "", err
	}
	if e.routed, err = listen(e.router); err != nil {
		return "", err
	}
	return e.routed.url, nil
}

// load is what one closed-loop phase observed.
type load struct {
	lat    []time.Duration
	done   []time.Duration // when each request completed, since the phase began
	wall   time.Duration
	failed int
	errs   []string // the first few failures, verbatim
}

// closedLoop drives do from clients() goroutines for dur: each sends its
// next request only after the previous one completed. Request i of the
// phase uses e.reqs[i mod len]; client c takes i = c, c+clients, ...
func (e *env[I]) closedLoop(dur time.Duration, name, layer string, do func(r *request[I]) error) load {
	n := clients()
	per := make([]load, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &per[c]
			for i := c; time.Now().Before(deadline); i += n {
				r := &e.reqs[i%len(e.reqs)]
				id := e.tr.start(e.tr.newOp(), 0, c+1, layer, name)
				t := time.Now()
				err := do(r)
				now := time.Now()
				l.lat = append(l.lat, now.Sub(t))
				l.done = append(l.done, now.Sub(start))
				e.tr.end(id)
				if err != nil {
					l.failed++
					if len(l.errs) < 4 {
						l.errs = append(l.errs, err.Error())
					}
				}
			}
		}(c)
	}
	wg.Wait()
	out := load{wall: time.Since(start)}
	for _, l := range per {
		out.lat = append(out.lat, l.lat...)
		out.done = append(out.done, l.done...)
		out.failed += l.failed
		out.errs = append(out.errs, l.errs...)
	}
	e.res.Attempted += len(out.lat)
	e.res.Failed += out.failed
	for _, msg := range out.errs {
		e.res.Failures = append(e.res.Failures, name+": "+msg)
	}
	return out
}

// decodeScores pulls the score vectors out of a predict or batch response.
func decodeScores(body []byte, batch bool) ([][]float64, error) {
	if !batch {
		var p serve.Prediction
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, err
		}
		return [][]float64{p.Scores}, nil
	}
	var resp struct {
		Results []serve.Prediction `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([][]float64, len(resp.Results))
	for i, p := range resp.Results {
		out[i] = p.Scores
	}
	return out, nil
}

// checkResponse verifies one HTTP-shaped answer against the request's
// expected scores.
func (e *env[I]) checkResponse(r *request[I], status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	got, err := decodeScores(body, e.s.batch > 1)
	if err != nil {
		return fmt.Errorf("bad response: %w", err)
	}
	return sameBits(got, r.expect)
}

// overHTTP posts requests to base over the keep-alive client.
func (e *env[I]) overHTTP(base string) func(r *request[I]) error {
	url := base + e.s.path()
	return func(r *request[I]) error {
		resp, err := e.client.Post(url, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		return e.checkResponse(r, resp.StatusCode, body)
	}
}

// throughHandler calls the server's handler in-process: the whole
// request path minus the network and net/http's connection handling.
func (e *env[I]) throughHandler(r *request[I]) error {
	req := httptest.NewRequest(http.MethodPost, e.s.path(), bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, req)
	return e.checkResponse(r, rec.Code, rec.Body.Bytes())
}

// throughRoute calls the route programmatically: admission, batching and
// the pipeline, with no codec and no HTTP.
func (e *env[I]) throughRoute(r *request[I]) error {
	ctx := context.Background()
	if e.s.batch > 1 {
		out, err := e.route.PredictBatch(ctx, r.recs)
		if err != nil {
			return err
		}
		return sameBits(out, r.expect)
	}
	out, err := e.route.Predict(ctx, r.recs[0])
	if err != nil {
		return err
	}
	return sameBits([][]float64{out}, r.expect)
}

// latencyStats is the client-side view of one load phase: the median over
// its slices of each slice's p50, p95 and completions per second.
type latencyStats struct {
	p50, p95 float64 // ms
	rps      float64
	p99      float64 // ms, over the whole phase
	n        int     // requests
	slices   int
}

// sliceLen is how the serve phase is cut up. The machines this runs on
// change speed for seconds at a time, so the phase reports the median over
// its one-second slices rather than one figure over all requests, which
// the slow seconds would drag: a slice holds several hundred requests, so
// its p95 keeps well over ten samples beyond it.
const sliceLen = time.Second

func summarize(loads ...load) latencyStats {
	var st latencyStats
	var p50s, p95s, rpss, all []float64
	for _, l := range loads {
		k := max(1, int(l.wall/sliceLen))
		width := l.wall / time.Duration(k)
		per := make([][]float64, k)
		for i, at := range l.done {
			j := min(int(at/width), k-1)
			per[j] = append(per[j], float64(l.lat[i])/float64(time.Millisecond))
		}
		for _, ms := range per {
			sort.Float64s(ms)
			p50s, p95s = append(p50s, percentile(ms, 50)), append(p95s, percentile(ms, 95))
			rpss = append(rpss, float64(len(ms))/width.Seconds())
			all = append(all, ms...)
		}
	}
	sort.Float64s(all)
	st.p50, st.p95, st.rps = median(p50s), median(p95s), median(rpss)
	st.p99, st.n, st.slices = percentile(all, 99), len(all), len(rpss)
	return st
}

// untracedRun is the end-to-end measurement: setup (repeated), then
// rounds of fit, transform and serve, with the deploy in the first.
func untracedRun[I any](s *spec[I], cfg runConfig, res *result) error {
	probe, sz := kernelProbe(), cfg.sizing()
	var e *env[I]
	var setups []float64
	for k := 0; k < sz.setupReps; k++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setup(s, cfg, res); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.close()
	res.set(endToEnd, "setup_s", probe.Seconds()+median(setups), len(setups))
	if err := e.prepare(); err != nil {
		return err
	}

	var (
		fs     fitSamples
		rates  []float64
		served []load
		fitted *keystone.Fitted[I, []float64]
		base   string
		rounds = time.Duration(sz.rounds)
	)
	for r := 0; r < sz.rounds; r++ {
		repeat(e.budget(fitShare)/rounds, sz.fitsPerRound, func() time.Duration {
			f, d := e.timedFit(&fs, e.fit)
			if f != nil {
				fitted = f
			}
			return d
		})
		if fitted == nil {
			return fmt.Errorf("no fit succeeded")
		}
		repeat(e.budget(transformShare)/rounds, 2, func() time.Duration { return e.timedTransform(&rates, fitted) })
		if r == 0 {
			var err error
			if base, err = e.deploy(fitted); err != nil {
				return fmt.Errorf("deploy: %w", err)
			}
		}
		runtime.GC()
		served = append(served, e.closedLoop(e.budget(serveShare)/rounds, "request", "client", e.overHTTP(base)))
	}
	// Every timing is a median over the run; the best seen rides along as
	// a note.
	walls := seconds(fs.wall)
	res.set(endToEnd, "fit_s", median(walls), len(walls))
	res.set(endToEnd, "fit_alloc_mb", median(fs.allocMB), len(fs.allocMB))
	res.set(endToEnd, "transform_records_per_s", median(rates), len(rates))
	st := summarize(served...)
	res.set(endToEnd, "predict_p50_ms", st.p50, st.n)
	res.set(endToEnd, "predict_p95_ms", st.p95, st.n)
	res.set(endToEnd, "predict_rps", st.rps, st.n)
	res.note("fastest", fmt.Sprintf("fit_s %.4f, transform_records_per_s %.0f", slices.Min(walls), slices.Max(rates)))
	res.note("serve phase", fmt.Sprintf("%d requests in %d slices of ~%v over %d rounds; p50, p95 and rps are medians over the slices; a slice supports up to p%v",
		st.n, st.slices, sliceLen, sz.rounds, highestSupported(st.n/st.slices)))
	res.note("quality", fmt.Sprintf("%.6f", keystone.Accuracy(e.expect, e.hold.Truth)))
	return nil
}
