// Command e2e is the repository's lifecycle benchmark: for one workload it
// sets the system up, fits, transforms, deploys and serves in one process,
// checks every output against an in-process reference, and prints each
// metric as "name value unit". See README.md for the metric dictionary.
//
//	go run ./bench/e2e -workload text-single -seed 1      (from the repository root)
//	go run ./bench/e2e -workload all -seed 1 -trace 1 -json out.json
//	go run ./bench/e2e -compare A.json B.json
//
// The last line of standard output is the JSON object BENCHMARK.json's
// driver reads: end-to-end metrics with -trace 0, per-layer with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is the measuring window when -seconds is not given:
// BENCHMARK.json's run_seconds (TestBenchmarkJSONParity keeps them equal).
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "data seed: train uses seed, holdout seed+1")
		secs    = flag.Float64("seconds", defaultSeconds, "measuring window in seconds, shared out between the phases")
		trace   = flag.String("trace", "0", "1 = traced run: per-layer metrics and a Chrome trace; 0 = end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "e2e-out"), "directory for scratch files and trace_<workload>.json")
		jsonOut = flag.String("json", "", "append this run's results to a JSON file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		bench   = flag.String("bench", "BENCHMARK.json", "where -compare reads directions and bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json")
		}
		ok, err := compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "compare: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *trace != "0" && *trace != "1" {
		fatal(2, "-trace wants 0 or 1, got %q", *trace)
	}
	if *secs <= 0 {
		fatal(2, "-seconds must be positive")
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fatal(2, "%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace == "1", outDir: *out}

	// One P unless GOMAXPROCS says otherwise. The machines the driver runs
	// this on give one steady core; whether a second thread gets a core of
	// its own changes from second to second, so at two Ps the timings follow
	// the host (a two-goroutine spin loop takes anything from 1x to 2x its
	// single-goroutine time there; see README.md, "One P"). Partition counts
	// and pool sizes still follow NumCPU, so the program does the work it
	// does by default, on one thread.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	failed := false
	for _, w := range selected {
		res, err := w.run(cfg)
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		printResult(res)
		if *jsonOut != "" {
			if err := appendResult(*jsonOut, res); err != nil {
				fatal(1, "write %s: %v", *jsonOut, err)
			}
		}
		// The driver's line goes last, after everything human-readable.
		fmt.Println(driverLine(res))
		failed = failed || res.Failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(code)
}

func selectWorkloads(arg string) ([]workload, error) {
	all := workloads()
	if arg == "all" {
		return all, nil
	}
	names := make([]string, len(all))
	for i, w := range all {
		if w.name == arg {
			return all[i : i+1], nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", arg, strings.Join(names, ", "))
}

// runWorkload runs one workload in the mode cfg selects.
func runWorkload[I any](s *spec[I], cfg runConfig) (*result, error) {
	res := &result{
		Workload: s.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Env:     envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Metrics: map[string]value{},
	}
	var err error
	if cfg.trace {
		err = tracedRun(s, cfg, res)
	} else {
		err = untracedRun(s, cfg, res)
	}
	return res, err
}

// metricSet is the metric list a run of this mode must emit in full.
func metricSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("# workload %s seed %d (%s) window %gs nproc %d GOMAXPROCS %d %s\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion)
	for _, d := range metricSet(r.Trace) {
		v := r.Metrics[d.name]
		if v.Samples > 0 {
			fmt.Printf("%-42s %14.6g %-8s n=%d\n", d.name, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Printf("%-42s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	fmt.Printf("%-42s %s\n", "pred_digest", r.PredDigest)
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-42s %s\n", k, r.Notes[k])
	}
	fmt.Printf("%-42s %d of %d operations\n", "failed", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

// driverLine renders the one-line JSON object the benchmark contract
// wants last on standard output.
func driverLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range metricSet(r.Trace) {
		metrics[d.name] = mv{r.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Note string `json:"note"`
	// Claim is always null: a result file records measurements of one
	// commit on one machine; a gain is claimed by comparing two of them.
	Claim *string   `json:"claim"`
	Runs  []*result `json:"runs"`
}

const resultNote = "informational: absolute numbers are machine-specific (see env and runtime.calib_ms); compare only result files taken on the same machine"

// appendResult adds r to the result file at path (created if absent).
func appendResult(path string, r *result) error {
	file := resultFile{Note: resultNote}
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("existing file is not a result file: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, r)
	if data, err = json.MarshalIndent(file, "", " "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
