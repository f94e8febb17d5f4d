// Package experiments implements the reproduction harness: one function
// per table/figure of the paper's evaluation section. Each function runs
// a scaled-down version of the experiment on synthetic workloads and
// prints rows shaped like the paper's, so the qualitative claims (who
// wins, by roughly what factor, where the crossovers fall) can be checked
// directly. Kernels adds the reference-vs-blocked kernel crossover the
// measured dispatch rests on. cmd/keybench dispatches to these, and
// bench_test.go wraps them as Go benchmarks. The experiments only print;
// what they show is asserted in this package's tests and the packages'
// own suites, and the end-to-end measurements live in bench/e2e.
package experiments

import (
	"fmt"
	"io"
	"time"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
)

// Scale selects experiment sizes. Quick keeps every experiment under a
// few seconds (used by benchmarks and CI); Full uses larger sizes for
// sharper ratios.
type Scale int

const (
	// Quick is the CI-friendly scale.
	Quick Scale = iota
	// Full is the report-quality scale.
	Full
)

// timeIt measures fn's wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// fetchOf adapts a fixed collection to a core.Fetch.
func fetchOf(c *engine.Collection) core.Fetch {
	return func() *engine.Collection { return c }
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// secs formats a duration in seconds with 3 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%8.3fs", d.Seconds()) }
