// Caching demo: shows the automatic materialization optimizer (Section
// 4.3, Algorithm 1) at work through the public options API. A branching
// image pipeline is fit with an unlimited cache budget and then with a
// tight one (5 % of the estimated intermediate state), printing the
// pinned set and per-operator recompute counts so the effect of the
// budget is visible. The LRU and rule-based baselines of Figure 10 run
// through `go run ./cmd/keybench -exp fig10`.
//
//	go run ./examples/cachingdemo
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"keystoneml/keystone"
)

func main() {
	train := keystone.SyntheticImages(48, 64, 3, 4, 40)
	pipe := keystone.VisionPipeline(keystone.VisionConfig{
		PCADims: 12, GMMComponents: 16, SampleDescs: 20, Seed: 9,
		Iterations: 25, WithLCS: true,
	})

	run := func(name string, budget int64) *keystone.Fitted[*keystone.Image, []float64] {
		// workers=1 keeps the recompute counts below deterministic — the
		// parallel scheduler coalesces shared branches, which is faster
		// but machine-dependent.
		fitted, err := pipe.Fit(context.Background(), train.Records, train.Labels,
			keystone.WithOptimizerLevel(keystone.LevelPipeline),
			keystone.WithWorkers(1),
			keystone.WithCacheBudget(budget))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s %8v\n", name, fitted.Info().TrainTime.Round(1e6))
		fmt.Printf("    pinned: %v\n", fitted.Info().Cached)
		report := fitted.TrainReport()
		sort.Slice(report, func(a, b int) bool { return report[a].Computes > report[b].Computes })
		for _, r := range report {
			if r.Computes > 1 {
				fmt.Printf("    recomputed %2dx: %s\n", r.Computes, r.Name)
			}
		}
		fmt.Println()
		return fitted
	}

	// The unlimited fit profiles the pipeline as a side effect, which is
	// where the state-size estimate (and hence the tight budget) comes
	// from — no extra probe fit needed.
	unlimited := run("unlimited budget", 0)
	totalBytes := unlimited.Info().EstimatedStateBytes
	budget := totalBytes / 20 // a 5% budget: painful but not hopeless
	fmt.Printf("estimated intermediate state: %.1f MB; cache budget: %.1f MB\n\n",
		float64(totalBytes)/1e6, float64(budget)/1e6)
	run("5% budget", budget)
}
