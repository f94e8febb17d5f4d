package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark emits and fixes its unit.
// Direction and regression bound live in BENCHMARK.json (the driver and
// -compare read them there); TestBenchmarkJSONParity keeps the two lists
// equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; they come from the
// untraced run only. See README.md for why quality and failed_share are
// not here.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"fit_alloc_mb", "MB"},
	{"transform_records_per_s", "1/s"},
	{"predict_p50_ms", "ms"},
	{"predict_p95_ms", "ms"},
	{"predict_rps", "1/s"},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// repository's modules. A metric that does not apply to a workload (the
// dist.* group off text-dist, spmm off the text workloads) reads 0.
var perLayer = []metricDef{
	{"quality", "share"},
	{"failed_share", "share"},

	{"keystone.fit_box_s", "s"},
	{"keystone.fit_unattributed_share", "share"},
	{"keystone.transform_one_us", "us"},
	{"keystone.transform_one_allocs", "count"},
	{"keystone.transform_batch_us_per_rec", "us"},
	{"keystone.transform_batch_allocs_per_rec", "count"},
	{"keystone.batch_speedup", "x"},
	{"keystone.artifact_encode_ms", "ms"},
	{"keystone.artifact_decode_ms", "ms"},
	{"keystone.artifact_bytes", "B"},

	{"optimizer.optimize_s", "s"},
	{"optimizer.optimize_share", "share"},
	{"optimizer.cache_set_size", "count"},
	{"optimizer.cse_merged", "count"},

	{"core.execute_s", "s"},
	{"core.node_computes", "count"},
	{"core.cache_hits", "count"},
	{"core.coalesced", "count"},
	{"core.estimator_time_share", "share"},

	{"engine.map_ns_per_rec", "ns"},
	{"engine.map_allocs_per_rec", "count"},

	{"solvers.fit_s", "s"},

	{"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.spmm_gflops", "GFLOP/s"},
	{"linalg.gemv_us", "us"},
	{"linalg.crossover_probe_s", "s"},

	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.route_predict_ms", "ms"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.mean_batch_size", "count"},
	{"serve.batches", "count"},
	{"serve.allocs_per_req", "count"},
	{"serve.client_p99_ms", "ms"},
	{"serve.deploy_ms", "ms"},
	{"serve.shed", "count"},

	{"registry.store_ms", "ms"},
	{"registry.load_ms", "ms"},

	{"dist.connect_s", "s"},
	{"dist.optimize_s", "s"},
	{"dist.train_s", "s"},
	{"dist.placement_overhead_s", "s"},
	{"dist.wire_mb_per_fit", "MB"},
	{"dist.model_ratio", "x"},
	{"dist.router_hop_ms", "ms"},
	{"dist.recoveries", "count"},

	{"runtime.fit_mallocs", "count"},
	{"runtime.gc_pause_ms_per_fit", "ms"},
	{"runtime.peak_heap_mb", "MB"},
	{"runtime.calib_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// value is one reported number. Samples is how many measurements it was
// reduced from (median or percentile); 0 for counts and derived
// values.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload: what -json stores and -compare reads.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Env        envInfo           `json:"env"`
	PredDigest string            `json:"pred_digest"`
	Notes      map[string]string `json:"notes,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]value  `json:"metrics"`
}

// envInfo records the machine a result came from; absolute numbers are
// machine-specific, so two result sets are only comparable when these
// (and runtime.calib_ms) agree.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (r *result) set(defs []metricDef, name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON cannot carry it; a ratio over a zero base is a broken run.
		r.fail(fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = value{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("bench/e2e: metric " + name + " is not declared in metrics.go")
}

func (r *result) note(k, v string) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[k] = v
}

// fail records one failed operation; the first few are kept verbatim so
// a red run says what broke.
func (r *result) fail(msg string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, msg)
	}
}

// --- sample statistics ---

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for even counts); 0 for an
// empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// reportable are the percentiles the benchmark may print, ascending.
var reportable = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest reportable percentile that still
// has at least ten samples beyond it in a sample of n (the choosing-metrics
// rule), or 0 when even the median has fewer than ten beyond.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// quartileSpread is (Q3-Q1)/|median| with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver's A/A check computes. With fewer than four values it
// falls back to (max-min)/|median|.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	med := math.Abs(median(s))
	if n < 2 || med == 0 {
		return 0
	}
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
