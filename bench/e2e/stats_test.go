package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
}

// The highest percentile reported is the one that still has ten samples
// beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},       // median at rank 10 leaves 9 beyond
		{20, 50},      // rank 10 leaves 10
		{100, 90},     // p95 would leave 5
		{199, 90},     // p95 at rank 190 leaves 9
		{200, 95},     // p95 at rank 190 leaves 10
		{1000, 99},    // p99 leaves 10
		{8000, 99},    // p99.9 at rank 7992 leaves 8
		{10000, 99.9}, // p99.9 leaves 10
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which is what the driver's A/A check uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles -> [2.75, 5.5, 8.25]; (8.25-2.75)/5.5 = 1
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	w := []float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3, 9.8, 10.0, 10.6}
	// quantiles -> [9.875, 10.05, 10.325]
	if got, want := quartileSpread(w), (10.325-9.875)/10.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three = %v, want (max-min)/median = 0.2", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one = %v, want 0", got)
	}
}

// A load phase reports the median over its one-second slices, so one slow
// and one fast second move nothing.
func TestSummarizeReportsMedianSlice(t *testing.T) {
	// Three one-second slices: 2 ms requests, then a slow second of 4 ms
	// requests, then 1 ms requests.
	var l load
	for sec, lat := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, time.Millisecond} {
		start := time.Duration(sec) * time.Second
		for at := lat / 2; at < time.Second; at += lat { // completions off the slice edges
			l.lat, l.done = append(l.lat, lat), append(l.done, start+at)
		}
	}
	l.wall = 3 * time.Second
	st := summarize(l)
	if st.slices != 3 || st.n != 500+250+1000 {
		t.Fatalf("%d requests in %d slices, want 1750 in 3", st.n, st.slices)
	}
	if st.p50 != 2 || st.p95 != 2 || st.rps != 500 {
		t.Errorf("median slice: p50 %v p95 %v rps %v, want 2, 2, 500", st.p50, st.p95, st.rps)
	}
	if st.p99 != 4 {
		t.Errorf("p99 over the whole phase = %v, want 4", st.p99)
	}
}
