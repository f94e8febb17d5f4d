// keyserve is an HTTP JSON inference server over the keystone/serve
// registry: a thin CLI that trains one pipeline per enabled route at
// startup and mounts serve.Server on a listener. Everything of substance
// — multi-route dispatch, micro-batching, versioned zero-downtime
// hot-swap, SLO-driven batch autotuning, stats — lives in the serve
// package.
//
//	go run ./cmd/keyserve -addr :8080 -routes text,vision -target-p95 20ms -max-inflight 256
//	curl -s localhost:8080/predict -d '{"text":"this product is excellent"}'
//	curl -s localhost:8080/routes/vision/predict -d @image.json
//	curl -s -X POST localhost:8080/routes/text/deploy   # refit + hot-swap
//	curl -s -X POST localhost:8080/routes/text/canary -d '{"fraction":0.1}'
//	curl -s localhost:8080/routes/text/canary           # candidate vs primary
//	curl -s -X POST localhost:8080/routes/text/promote  # or .../abort
//	curl -s -X POST localhost:8080/routes/text/rollback
//	curl -s localhost:8080/routes/text/versions
//	curl -s localhost:8080/stats
//
// Each route has a refitter wired, so POST /routes/{name}/deploy trains
// a fresh pipeline version on new synthetic data and swaps it in with
// zero downtime, and POST /routes/{name}/canary (or /shadow) stages one
// behind the splitter instead. -max-inflight/-max-queue turn on
// admission control (overload sheds 429 + Retry-After). The listener is
// bound before training starts, so a port held by a stale process fails
// fast instead of training first and dying late. SIGINT/SIGTERM cancel
// startup training (via the context-aware Fit) and gracefully drain the
// server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"keystoneml/keystone"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		routes    = flag.String("routes", "text", "comma-separated routes to serve (text, vision)")
		workers   = flag.Int("workers", 0, "fit parallelism (0 = NumCPU)")
		maxBatch  = flag.Int("max-batch", 32, "initial micro-batch size cap")
		maxDelay  = flag.Duration("max-delay", time.Millisecond, "micro-batch linger; 0 = dispatch as soon as the pipeline is free")
		targetP95 = flag.Duration("target-p95", 0, "p95 latency SLO; enables the batch autotuner (0 = static limits)")
		tputFloor = flag.Float64("throughput-floor", 0, "records/sec floor for the autotuner's multi-objective mode (0 = p95 only)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request budget")

		maxInFlight = flag.Int("max-inflight", 0, "admission control: per-route cap on in-flight records; overload sheds 429 (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "admission control: shed single predictions while the batcher queue is this deep (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")

		registryDir = flag.String("registry", "", "artifact registry directory; binds routes to it so deployed versions persist and rollback survives restarts")
		artifactRef = flag.String("artifact", "", "text: boot from a saved artifact instead of training (a registry tag/id/prefix with -registry, else a file path)")
		savePath    = flag.String("save", "", "text: save the startup-trained artifact to this file (keystone.Save format)")

		trainDocs = flag.Int("train-docs", 2000, "text: synthetic training corpus size")
		features  = flag.Int("features", 5000, "text: vocabulary size")
		iters     = flag.Int("iters", 15, "text: solver iterations")
		labels    = flag.String("labels", "negative,positive", "text: class labels for the argmax response")

		trainImages  = flag.Int("train-images", 120, "vision: synthetic training image count")
		imageSize    = flag.Int("image-size", 16, "vision: synthetic image edge length")
		imageClasses = flag.Int("image-classes", 3, "vision: class count")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Bind before the (potentially long) startup training: a port held by
	// a stale keyserve fails the run immediately with a clear message
	// instead of training for seconds and then dying — and instead of
	// leaving a smoke-test driver polling a server that will never come.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("bind %s: %v (is a stale keyserve still running on this port?)", *addr, err)
	}

	srv := serve.NewServer()
	defer srv.Close()

	opts := []serve.RouteOption{
		serve.WithBatchLimits(*maxBatch, *maxDelay),
		serve.WithTimeout(*timeout),
	}
	if *targetP95 > 0 {
		opts = append(opts, serve.WithSLO(serve.SLO{
			TargetP95:       *targetP95,
			ThroughputFloor: *tputFloor,
		}))
	}
	if *maxInFlight > 0 || *maxQueue > 0 {
		opts = append(opts, serve.WithAdmission(serve.Admission{
			MaxInFlight: *maxInFlight,
			MaxQueue:    *maxQueue,
			RetryAfter:  *retryAfter,
		}))
	}
	var store *registry.Registry
	if *registryDir != "" {
		var err error
		if store, err = registry.Open(*registryDir); err != nil {
			log.Fatalf("open registry: %v", err)
		}
		opts = append(opts, serve.WithArtifactStore(store))
	}

	for _, name := range strings.Split(*routes, ",") {
		var err error
		switch strings.TrimSpace(name) {
		case "text":
			labelList := strings.Split(*labels, ",")
			for i := range labelList {
				labelList[i] = strings.TrimSpace(labelList[i])
			}
			err = registerText(ctx, srv, textParams{
				docs: *trainDocs, features: *features, iters: *iters,
				labels: labelList, workers: *workers,
				artifact: *artifactRef, save: *savePath, store: store,
			}, opts)
		case "vision":
			err = registerVision(ctx, srv, visionParams{
				images: *trainImages, size: *imageSize, classes: *imageClasses,
				workers: *workers,
			}, opts)
		case "":
			continue
		default:
			log.Fatalf("unknown route %q (want text, vision)", name)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Print("training canceled, exiting")
				os.Exit(0)
			}
			log.Fatalf("register %s: %v", name, err)
		}
	}
	if len(srv.RouteNames()) == 0 {
		log.Fatal("no routes enabled")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	go func() {
		<-ctx.Done()
		log.Print("shutting down...")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	tuning := "static limits"
	if *targetP95 > 0 {
		tuning = fmt.Sprintf("autotuning to p95 %v", *targetP95)
		if *tputFloor > 0 {
			tuning += fmt.Sprintf(" with a %.0f rec/s floor", *tputFloor)
		}
	}
	admission := "admission off"
	if *maxInFlight > 0 || *maxQueue > 0 {
		admission = fmt.Sprintf("admission in-flight<=%d queue<=%d", *maxInFlight, *maxQueue)
	}
	log.Printf("serving routes %v on %s (max-batch=%d, max-delay=%v, %s, %s)",
		srv.RouteNames(), ln.Addr(), *maxBatch, *maxDelay, tuning, admission)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}

type textParams struct {
	docs, features, iters, workers int
	labels                         []string
	artifact, save                 string
	store                          *registry.Registry
}

// registerText registers the paper's Figure 2 text-classification
// pipeline. Normally it trains on the synthetic review corpus at
// startup; with -artifact it instead loads a saved fitted artifact —
// from the registry (tag/id/prefix) when one is bound, else from a file
// — which turns a multi-second training cold start into a
// millisecond-scale decode. The refitter retrains on a fresh corpus per
// deploy either way, so POST /routes/text/deploy exercises a real
// hot-swap.
func registerText(ctx context.Context, srv *serve.Server, p textParams, opts []serve.RouteOption) error {
	var seed atomic.Uint64
	seed.Store(1)
	train := func(ctx context.Context) (*keystone.Fitted[string, []float64], error) {
		s := seed.Add(1) - 1
		log.Printf("[text] training on %d synthetic reviews (features=%d iters=%d seed=%d)...",
			p.docs, p.features, p.iters, s)
		data := keystone.SyntheticReviews(p.docs, s)
		pipe := keystone.TextPipeline(keystone.TextConfig{NumFeatures: p.features, Iterations: p.iters})
		start := time.Now()
		fitted, err := pipe.Fit(ctx, data.Records, data.Labels, keystone.WithWorkers(p.workers))
		if err != nil {
			return nil, err
		}
		log.Printf("[text] trained in %v", time.Since(start).Round(time.Millisecond))
		return fitted, nil
	}
	codec := serve.TextCodec{Labels: p.labels}

	var route *serve.Route[string, []float64]
	switch {
	case p.artifact != "" && p.store != nil:
		start := time.Now()
		var err error
		route, err = serve.RegisterArtifact(srv, "text", p.store, p.artifact, codec, opts...)
		if err != nil {
			return err
		}
		log.Printf("[text] loaded artifact %q from registry in %v", p.artifact, time.Since(start).Round(time.Microsecond))
	case p.artifact != "":
		start := time.Now()
		fitted, err := keystone.Load[string, []float64](p.artifact, keystone.WithWorkers(p.workers))
		if err != nil {
			return err
		}
		if route, err = serve.Register(srv, "text", fitted, codec, opts...); err != nil {
			return err
		}
		log.Printf("[text] loaded artifact %s in %v", p.artifact, time.Since(start).Round(time.Microsecond))
	default:
		fitted, err := train(ctx)
		if err != nil {
			return err
		}
		if p.save != "" {
			if err := keystone.Save(fitted, p.save); err != nil {
				return fmt.Errorf("save artifact: %w", err)
			}
			log.Printf("[text] saved artifact to %s", p.save)
		}
		if route, err = serve.Register(srv, "text", fitted, codec, opts...); err != nil {
			return err
		}
	}
	route.SetRefit(train)
	return nil
}

type visionParams struct {
	images, size, classes, workers int
}

// registerVision assembles a custom vision DAG from the exported
// primitives — Grayscale, Pooling, ImageToVector, ZCAWhitening — proving
// the registry hosts a second modality next to text on the same server.
func registerVision(ctx context.Context, srv *serve.Server, p visionParams, opts []serve.RouteOption) error {
	var seed atomic.Uint64
	seed.Store(1)
	train := func(ctx context.Context) (*keystone.Fitted[*keystone.Image, []float64], error) {
		s := seed.Add(1) - 1
		log.Printf("[vision] training on %d synthetic %dx%d images (%d classes, seed=%d)...",
			p.images, p.size, p.size, p.classes, s)
		data := keystone.SyntheticImages(p.images, p.size, 3, p.classes, s)
		in := keystone.Input[*keystone.Image]()
		gray := keystone.Then(in, keystone.Grayscale())
		pooled := keystone.Then(gray, keystone.Pooling(2))
		vec := keystone.Then(pooled, keystone.ImageToVector())
		white := keystone.ThenEstimator(vec, keystone.ZCAWhitening(0.1))
		pipe := keystone.ThenEstimator(white, keystone.LinearSolver(10))
		start := time.Now()
		fitted, err := pipe.Fit(ctx, data.Records, data.Labels, keystone.WithWorkers(p.workers))
		if err != nil {
			return nil, err
		}
		log.Printf("[vision] trained in %v", time.Since(start).Round(time.Millisecond))
		return fitted, nil
	}
	fitted, err := train(ctx)
	if err != nil {
		return err
	}
	classLabels := make([]string, p.classes)
	for i := range classLabels {
		classLabels[i] = fmt.Sprintf("texture%d", i)
	}
	route, err := serve.Register(srv, "vision", fitted, serve.ImageCodec{Labels: classLabels}, opts...)
	if err != nil {
		return err
	}
	route.SetRefit(train)
	return nil
}
