// distsmoke is the end-to-end distributed smoke test behind `make
// dist-smoke`: it builds the keyworker binary, boots a 2-worker cluster
// as real processes (wire + serving replica each, sharing one artifact
// registry), runs a distributed fit of the Figure 2 text pipeline and
// checks its predictions are bit-identical to the single-process
// oracle, encodes and registers the fitted artifact, ships the artifact
// id to every replica via the wire serve op, fronts the replicas with
// the consistent-hash router, predicts through it, pushes shared
// rollout state (admission caps) and reads it back from both replicas,
// then kills one worker process and verifies the router degrades to the
// survivor — still serving, same answers. Pure Go, no external
// dependencies, exits non-zero on the first failure.
//
//	go run ./cmd/distsmoke
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"keystoneml/keystone"
	"keystoneml/keystone/dist"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distsmoke: ")
	if err := run(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Print("PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "distsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "keyworker")
	log.Print("building keyworker...")
	build := exec.Command("go", "build", "-o", bin, "./cmd/keyworker")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build keyworker: %w", err)
	}
	regDir := filepath.Join(tmp, "registry")

	// Boot 2 worker processes, each with a wire port and a replica port.
	const nWorkers = 2
	var wireAddrs []string
	procs := make([]*exec.Cmd, 0, nWorkers)
	exits := make([]chan error, 0, nWorkers)
	defer func() {
		for _, p := range procs {
			p.Process.Kill() //nolint:errcheck // best-effort teardown
		}
	}()
	for i := 0; i < nWorkers; i++ {
		wirePort, err := freePort()
		if err != nil {
			return err
		}
		httpPort, err := freePort()
		if err != nil {
			return err
		}
		wire := fmt.Sprintf("127.0.0.1:%d", wirePort)
		cmd := exec.Command(bin,
			"-listen", wire,
			"-http", fmt.Sprintf("127.0.0.1:%d", httpPort),
			"-registry", regDir,
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		procs = append(procs, cmd)
		exits = append(exits, exited)
		wireAddrs = append(wireAddrs, wire)
	}
	cl, err := dialCluster(wireAddrs, exits, 30*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	log.Printf("%d workers up: %v", cl.Workers(), wireAddrs)

	// Distributed fit vs the single-process oracle, bit for bit.
	// LevelPipeline keeps operator selection out of the comparison
	// (operator choice depends on measured timings and may legitimately
	// differ run to run); the distributed-execution equivalence being
	// proven here is level-independent.
	train := keystone.SyntheticReviews(200, 1)
	test := keystone.SyntheticReviews(40, 2)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 600, Iterations: 5})

	log.Print("single-process oracle fit...")
	local, err := p.Fit(context.Background(), train.Records, train.Labels,
		keystone.WithOptimizerLevel(keystone.LevelPipeline),
		keystone.WithPartitions(4),
		keystone.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("local fit: %w", err)
	}
	log.Print("distributed fit over 2 workers...")
	distFit, rep, err := dist.Fit(context.Background(), cl, p, train.Records, train.Labels, dist.FitOptions{
		Level:      keystone.LevelPipeline,
		Partitions: 4,
	})
	if err != nil {
		return fmt.Errorf("dist fit: %w", err)
	}
	log.Printf("dist fit: %d workers, %d partitions, optimize %v, train %v, modeled makespan %.3gs, cached %v",
		rep.Workers, rep.Partitions, rep.OptimizeTime.Round(time.Millisecond),
		rep.TrainTime.Round(time.Millisecond), rep.ModeledMakespan, rep.CacheSet)
	for i, doc := range test.Records {
		want, err := local.Transform(context.Background(), doc)
		if err != nil {
			return err
		}
		got, err := distFit.Transform(context.Background(), doc)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("doc %d: dist prediction %v != oracle %v", i, got, want)
		}
	}
	log.Printf("%d test predictions bit-identical to the oracle", len(test.Records))

	// Chaos leg: SIGKILL a worker process mid-fit (deterministically, at
	// the last apply frame a clean fit sends worker 0, via the fault
	// plan's sever hook) and require the fit to complete through partition
	// reassignment + lineage replay with predictions still bit-identical
	// to the single-process oracle.
	if err := chaosFit(bin, p, local, train, test); err != nil {
		return fmt.Errorf("chaos leg: %w", err)
	}

	// Register the fitted artifact and ship its id to every replica.
	reg, err := registry.Open(regDir)
	if err != nil {
		return err
	}
	blob, err := keystone.Encode(distFit)
	if err != nil {
		return err
	}
	id, err := reg.Put(blob)
	if err != nil {
		return err
	}
	if err := reg.Tag("text.live", id); err != nil {
		return err
	}
	replicas, err := cl.ServeRoute("text", "text", id)
	if err != nil {
		return fmt.Errorf("serve route: %w", err)
	}
	log.Printf("artifact %.12s serving on replicas %v", id, replicas)

	router, err := dist.NewRouter(dist.RouterOptions{Replicas: replicas, HealthInterval: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	defer router.Close()
	front := httptest.NewServer(router)
	defer front.Close()

	doc := test.Records[0]
	want, err := distFit.Transform(context.Background(), doc)
	if err != nil {
		return err
	}
	var pred struct {
		Label  string    `json:"label"`
		Scores []float64 `json:"scores"`
	}
	body, _ := json.Marshal(map[string]string{"text": doc})
	if err := postJSON(front.URL+"/routes/text/predict", string(body), &pred); err != nil {
		return fmt.Errorf("predict via router: %w", err)
	}
	if !reflect.DeepEqual(pred.Scores, want) {
		return fmt.Errorf("router prediction %v != direct %v", pred.Scores, want)
	}
	log.Printf("router prediction matches: %q -> %s", firstWords(doc), pred.Label)

	// Push shared rollout state and read it back from every replica.
	cap := 16
	if err := router.PushRollout(context.Background(), "text", serve.RolloutState{MaxInFlight: &cap}); err != nil {
		return fmt.Errorf("push rollout: %w", err)
	}
	for _, addr := range replicas {
		var st struct {
			MaxInFlight *int `json:"max_in_flight"`
		}
		if err := getJSON(addr+"/routes/text/rollout", &st); err != nil {
			return fmt.Errorf("rollout state from %s: %w", addr, err)
		}
		if st.MaxInFlight == nil || *st.MaxInFlight != cap {
			return fmt.Errorf("replica %s rollout state = %+v, want max_in_flight %d", addr, st, cap)
		}
	}
	log.Printf("rollout state (max_in_flight=%d) propagated to all replicas", cap)

	// Kill one worker process: the router must keep serving (degraded)
	// with identical answers from the survivor.
	log.Print("killing worker 0...")
	if err := procs[0].Process.Kill(); err != nil {
		return err
	}
	<-exits[0]
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := postJSON(front.URL+"/routes/text/predict", string(body), &pred)
		if err == nil {
			if !reflect.DeepEqual(pred.Scores, want) {
				return fmt.Errorf("degraded prediction %v != direct %v", pred.Scores, want)
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never recovered after losing a worker: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The health loop marks the killed worker's replica down shortly.
	healthy := nWorkers
	for healthy == nWorkers {
		healthy = 0
		for _, rs := range router.Replicas() {
			if rs.Healthy {
				healthy++
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("killed replica never marked down")
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Printf("degraded but serving: %d/%d replicas healthy, predictions unchanged", healthy, nWorkers)

	// Graceful shutdown of the survivor.
	procs[1].Process.Signal(os.Interrupt) //nolint:errcheck // fallback kill in the defer
	select {
	case <-exits[1]:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("worker 1 did not exit on SIGINT")
	}
	return nil
}

// chaosFit boots a fresh pair of fit-only worker processes, counts the
// apply frames a clean fit sends worker 0, then arms a fault plan that
// severs the last of them (by then the source and the featurised rows
// are resident, so recovery replays both onto the survivor) and
// SIGKILLs the process behind it, and requires the distributed fit to
// complete anyway — reassigning the dead worker's partitions, replaying
// their lineage on the survivor — with predictions bit-identical to the
// single-process oracle.
func chaosFit(bin string, p *keystone.Pipeline[string, []float64], local *keystone.Fitted[string, []float64], train, test keystone.Dataset[string]) error {
	const nWorkers = 2
	var wireAddrs []string
	procs := make([]*exec.Cmd, 0, nWorkers)
	exits := make([]chan error, 0, nWorkers)
	defer func() {
		for _, p := range procs {
			p.Process.Kill() //nolint:errcheck // best-effort teardown
		}
	}()
	for i := 0; i < nWorkers; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		wire := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin, "-listen", wire)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start chaos worker %d: %w", i, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		procs = append(procs, cmd)
		exits = append(exits, exited)
		wireAddrs = append(wireAddrs, wire)
	}
	probe, err := dialCluster(wireAddrs, exits, 30*time.Second)
	if err != nil {
		return err
	}
	probe.Close()

	// Count first: an inert plan maps the clean fit's frames, so the kill
	// below follows the fit's frame sequence instead of assuming it.
	counter := dist.NewFaultPlan()
	ccl, err := dist.ConnectWith(dist.ClusterOptions{Addrs: wireAddrs, Fault: counter})
	if err != nil {
		return err
	}
	_, _, err = dist.Fit(context.Background(), ccl, p, train.Records, train.Labels, chaosFitOptions)
	ccl.Close()
	if err != nil {
		return fmt.Errorf("clean counting fit: %w", err)
	}
	applies := counter.FrameCount("apply", 0)
	if applies == 0 {
		return fmt.Errorf("a clean fit sends worker 0 no apply frames")
	}
	log.Printf("chaos: a clean fit sends worker 0 %d apply frames; killing it at the last", applies)

	plan := dist.NewFaultPlan(dist.FaultRule{Op: "apply", Worker: 0, Nth: applies, Mode: dist.FaultSever})
	plan.OnSever = func(i int) {
		log.Printf("chaos: SIGKILL worker %d mid-fit", i)
		procs[i].Process.Kill() //nolint:errcheck // the kill is the point
	}
	cl, err := dist.ConnectWith(dist.ClusterOptions{
		Addrs:        wireAddrs,
		OpTimeout:    30 * time.Second,
		DialRetries:  2,
		RetryBackoff: 100 * time.Millisecond,
		Fault:        plan,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	log.Print("chaos: distributed fit with a mid-fit worker kill...")
	distFit, rep, err := dist.Fit(context.Background(), cl, p, train.Records, train.Labels, chaosFitOptions)
	if err != nil {
		return fmt.Errorf("fit did not survive the kill: %w", err)
	}
	if ev := plan.Events(); len(ev) != 1 {
		return fmt.Errorf("fault plan fired %d times, want 1", len(ev))
	}
	if rep.Recoveries < 1 {
		return fmt.Errorf("fit reports no recovery after a kill: %+v", rep)
	}
	log.Printf("chaos: fit survived the kill (%d recoveries, %d partition replays, train %v)",
		rep.Recoveries, rep.ReplayedPartitions, rep.TrainTime.Round(time.Millisecond))
	for i, doc := range test.Records {
		want, err := local.Transform(context.Background(), doc)
		if err != nil {
			return err
		}
		got, err := distFit.Transform(context.Background(), doc)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("doc %d: post-recovery prediction %v != oracle %v", i, got, want)
		}
	}
	log.Printf("chaos: %d predictions bit-identical to the oracle after recovery", len(test.Records))

	procs[1].Process.Signal(os.Interrupt) //nolint:errcheck // fallback kill in the defer
	select {
	case <-exits[1]:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("chaos survivor did not exit on SIGINT")
	}
	return nil
}

// chaosFitOptions are the chaos leg's fit options, the oracle's.
var chaosFitOptions = dist.FitOptions{
	Level:      keystone.LevelPipeline,
	Partitions: 4,
}

// dialCluster retries dist.Connect until every worker's wire port is up.
func dialCluster(addrs []string, exits []chan error, timeout time.Duration) (*dist.Cluster, error) {
	deadline := time.Now().Add(timeout)
	for {
		for i, exited := range exits {
			select {
			case err := <-exited:
				return nil, fmt.Errorf("worker %d exited during startup: %v", i, err)
			default:
			}
		}
		cl, err := dist.Connect(addrs...)
		if err == nil {
			if _, err := cl.Ping(); err == nil {
				return cl, nil
			}
			cl.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("workers not reachable after %v: %v", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func firstWords(s string) string {
	words := strings.Fields(s)
	if len(words) > 4 {
		words = words[:4]
	}
	return strings.Join(words, " ")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func postJSON(url, body string, out any) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}
