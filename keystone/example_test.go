package keystone_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"keystoneml/keystone"
)

// ExamplePipeline_Fit builds a two-step custom pipeline, fits it, and
// serves one record through the fitted artifact — the full
// build -> Fit -> Transform lifecycle on deterministic operators.
// Real pipelines chain the built-in operators (Tokenizer, TermFrequency,
// LogisticRegression, ...) or a prebuilt like TextPipeline the same way.
func ExamplePipeline_Fit() {
	// Each Then step is type-checked at compile time:
	// string -> word count -> [n, n^2] feature vector.
	words := keystone.Then(keystone.Input[string](),
		keystone.NewOp("wordCount", func(s string) float64 {
			return float64(len(strings.Fields(s)))
		}))
	features := keystone.Then(words,
		keystone.NewOp("quadratic", func(n float64) []float64 {
			return []float64{n, n * n}
		}))

	// Fit optimizes and trains a private clone of the DAG; the pipeline
	// value stays reusable. Labels are nil — no supervised estimator here.
	fitted, err := features.Fit(context.Background(),
		[]string{"some training text", "more text"}, nil,
		keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		log.Fatal(err)
	}

	// Transform is the single-record serving hot path; TransformBatch
	// fans large batches across the engine workers.
	out, err := fitted.Transform(context.Background(), "one two three")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
	// Output: [3 9]
}

// Example is the package overview's Figure 2 pipeline, compiled and run:
// tokens, binary term frequencies, a learned sparse vocabulary and a
// logistic regression scoring two classes.
func Example() {
	ctx := context.Background()
	reviews := keystone.SyntheticReviews(200, 1)
	docs, truth := reviews.Records, reviews.Truth

	pipe := keystone.Then(
		keystone.Then(keystone.Input[string](), keystone.Tokenizer()),
		keystone.TermFrequency())
	features := keystone.ThenEstimator(pipe, keystone.CommonSparseFeatures(1000))
	full := keystone.ThenEstimator(features, keystone.LogisticRegression(25))
	fitted, err := full.Fit(ctx, docs, keystone.OneHot(truth, 2))
	if err != nil {
		log.Fatal(err)
	}
	score, err := fitted.Transform(ctx, "a held-out document")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(score))
	// Output: 2
}
