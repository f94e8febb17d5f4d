package experiments

import (
	"fmt"
	"io"
	"time"

	"keystoneml/internal/baselines"
	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/image"
	"keystoneml/internal/metrics"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// workloadSpec bundles a buildable pipeline with its train/test data.
type workloadSpec struct {
	name       string
	build      func() *core.Graph
	train      workload.Labeled
	test       workload.Labeled
	numClasses int
}

// specs constructs the three Figure 9 pipelines at experiment scale.
func specs(scale Scale) []workloadSpec {
	nText, nSpeech, nVision := 400, 400, 36
	if scale == Full {
		nText, nSpeech, nVision = 1200, 1200, 80
	}
	textTrain := workload.AmazonReviews(nText, 1, 8)
	textTest := workload.AmazonReviews(nText/4, 2, 4)
	speechTrain := workload.DenseVectors(nSpeech, 40, 8, 3, 8)
	speechTest := workload.DenseVectors(nSpeech/4, 40, 8, 4, 4)
	visionTrain := workload.Images(nVision, 48, 1, 4, 5, 4)
	visionTest := workload.Images(nVision/2, 48, 1, 4, 6, 2)
	return []workloadSpec{
		{
			name: "Amazon",
			build: func() *core.Graph {
				return graphOf(keystone.TextPipeline(keystone.TextConfig{NumFeatures: 2000, Iterations: 20}).EngineGraph())
			},
			train: textTrain, test: textTest, numClasses: 2,
		},
		{
			name: "TIMIT",
			build: func() *core.Graph {
				return graphOf(keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: 40, NumFeatures: 192, Seed: 7, Iterations: 20}).EngineGraph())
			},
			train: speechTrain, test: speechTest, numClasses: 8,
		},
		{
			name: "VOC",
			build: func() *core.Graph {
				return graphOf(keystone.VisionPipeline(keystone.VisionConfig{PCADims: 12, GMMComponents: 6, SampleDescs: 30, Seed: 9, Iterations: 20}).EngineGraph())
			},
			train: visionTrain, test: visionTest, numClasses: 4,
		},
	}
}

// runPlan fits a pipeline under a given optimizer level and returns the
// plan (whose OptimizeTime is the Optimize stage), the train time and the
// fitted pipeline.
func runPlan(spec workloadSpec, level optimizer.Level, parallelism int) (plan *optimizer.Plan, execTime time.Duration, fitted *core.Fitted) {
	g := spec.build()
	cfg := optimizer.Config{
		Level:       level,
		Resources:   cluster.Local(8),
		NumClasses:  spec.numClasses,
		Parallelism: parallelism,
	}
	plan = optimizer.Optimize(g, spec.train.Data, spec.train.Labels, cfg)
	start := time.Now()
	models, _, _ := plan.Execute(spec.train.Data, spec.train.Labels, parallelism)
	execTime = time.Since(start)
	fitted = core.NewFitted(g, models, engine.NewContext(parallelism))
	return plan, execTime, fitted
}

// Figure9 compares optimization levels (None / Pipe Only / KeystoneML)
// end to end on the Amazon, TIMIT and VOC pipelines. Expected shape:
// whole-pipeline optimizations alone give a large speedup on pipelines
// dominated by re-featurization (Amazon), and operator selection adds
// more where the default solver is wrong (TIMIT, VOC).
func Figure9(w io.Writer, scale Scale) {
	header(w, "Figure 9: impact of optimization levels")
	fmt.Fprintf(w, "%-8s %-12s %12s %10s %12s %12s %10s\n", "workload", "level", "optimize", "samples", "train", "total", "speedup")
	for _, spec := range specs(scale) {
		var baseline float64
		for _, level := range []optimizer.Level{optimizer.LevelNone, optimizer.LevelPipeline, optimizer.LevelFull} {
			plan, execT, _ := runPlan(spec, level, 0)
			total := plan.OptimizeTime + execT
			samples := "-" // LevelNone does not profile
			if plan.Profile != nil {
				samples = fmt.Sprintf("%d/%d", plan.Profile.SampleSizes[0], plan.Profile.SampleSizes[1])
			}
			if level == optimizer.LevelNone {
				baseline = total.Seconds()
			}
			fmt.Fprintf(w, "%-8s %-12s %12s %10s %12s %12s %9.1fx\n",
				spec.name, level, secs(plan.OptimizeTime), samples, secs(execT), secs(total), baseline/total.Seconds())
		}
	}
}

// Table5 runs every pipeline at experiment scale with full optimization
// and reports train time and test quality (the Table 5 analogue; absolute
// accuracy is on synthetic data, so the check is "does the pipeline
// learn", not the paper's number).
func Table5(w io.Writer, scale Scale) {
	header(w, "Table 5: time and statistical quality per pipeline")
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "workload", "train", "metric", "value")
	for _, spec := range specs(scale) {
		_, execT, fitted := runPlan(spec, optimizer.LevelFull, 0)
		scores := collectScores(fitted, spec.test.Data)
		acc := metrics.Accuracy(scores, spec.test.Truth)
		fmt.Fprintf(w, "%-10s %12s %12s %9.1f%%\n", spec.name, secs(execT), "accuracy", 100*acc)
	}
	// CIFAR-shaped convolutional pipeline.
	nCifar := 60
	if scale == Full {
		nCifar = 160
	}
	train := workload.Images(nCifar, 32, 3, 4, 21, 4)
	test := workload.Images(nCifar/2, 32, 3, 4, 22, 2)
	spec := workloadSpec{
		name: "CIFAR-10",
		build: func() *core.Graph {
			return graphOf(keystone.CifarPipeline(keystone.CifarConfig{NumFilters: 12, Seed: 23, Iterations: 20}).EngineGraph())
		},
		train: train, test: test, numClasses: 4,
	}
	_, execT, fitted := runPlan(spec, optimizer.LevelFull, 0)
	scores := collectScores(fitted, test.Data)
	fmt.Fprintf(w, "%-10s %12s %12s %9.1f%%\n", spec.name, secs(execT), "accuracy",
		100*metrics.Accuracy(scores, test.Truth))
	// YouTube-shaped pre-featurized pipeline (Section 5.2's last workload).
	yt := workload.YouTube(300, 12, 31, 8)
	ytTest := workload.YouTube(100, 12, 32, 4)
	ytSpec := workloadSpec{
		name: "YouTube8m",
		build: func() *core.Graph {
			return graphOf(keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: 1024, NumFeatures: 128, Seed: 33, Iterations: 15}).EngineGraph())
		},
		train: yt, test: ytTest, numClasses: 12,
	}
	_, execT, fitted = runPlan(ytSpec, optimizer.LevelFull, 0)
	scores = collectScores(fitted, ytTest.Data)
	fmt.Fprintf(w, "%-10s %12s %12s %9.1f%%\n", ytSpec.name, secs(execT), "accuracy",
		100*metrics.Accuracy(scores, ytTest.Truth))
}

func collectScores(fitted *core.Fitted, data *engine.Collection) [][]float64 {
	out := fitted.Apply(data)
	recs := out.Collect()
	scores := make([][]float64, len(recs))
	for i, r := range recs {
		scores[i] = r.([]float64)
	}
	return scores
}

// Table3 prints the synthetic dataset inventory in the shape of the
// paper's Table 3.
func Table3(w io.Writer, scale Scale) {
	header(w, "Table 3: dataset characteristics (synthetic, scaled)")
	n := 400
	if scale == Full {
		n = 2000
	}
	fmt.Fprintln(w, workload.Describe("Amazon", workload.AmazonReviews(n, 1, 8)))
	fmt.Fprintln(w, workload.Describe("TIMIT", workload.DenseVectors(n, 440, 147, 2, 8)))
	fmt.Fprintln(w, workload.Describe("ImageNet", workload.Images(n/8, 64, 3, 10, 3, 8)))
	fmt.Fprintln(w, workload.Describe("VOC", workload.Images(n/8, 48, 3, 5, 4, 8)))
	fmt.Fprintln(w, workload.Describe("CIFAR-10", workload.Images(n/4, 32, 3, 10, 5, 8)))
	fmt.Fprintln(w, workload.Describe("Youtube8m", workload.YouTube(n/2, 48, 6, 8)))
}

// Table6 prints the CIFAR time-to-accuracy scaling comparison between the
// TensorFlow coordination model and the KeystoneML communication-avoiding
// model (analytic; calibrated to the paper's measured endpoints — see
// DESIGN.md substitutions).
func Table6(w io.Writer) {
	header(w, "Table 6: CIFAR-10 time (minutes) to 84% accuracy vs cluster size")
	tf := baselines.CIFARDefaults()
	ks := baselines.CIFARKeystoneDefaults()
	fmt.Fprintf(w, "%-20s", "machines")
	nodes := []int{1, 2, 4, 8, 16, 32}
	for _, n := range nodes {
		fmt.Fprintf(w, "%8d", n)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s", "TensorFlow (strong)")
	for _, n := range nodes {
		fmt.Fprintf(w, "%8.0f", tf.StrongScaleMinutes(n))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s", "TensorFlow (weak)")
	for _, n := range nodes {
		if m := tf.WeakScaleMinutes(n); m < 0 {
			fmt.Fprintf(w, "%8s", "xxx")
		} else {
			fmt.Fprintf(w, "%8.0f", m)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s", "KeystoneML")
	for _, n := range nodes {
		fmt.Fprintf(w, "%8.0f", ks.Minutes(n))
	}
	fmt.Fprintln(w)
}

// Figure12 prints the stage-level scaling breakdown for the Amazon, TIMIT
// and ImageNet pipelines from 8 to 128 nodes (analytic model calibrated
// to Figure 12's shape: ImageNet near-linear, Amazon/TIMIT flattening
// past 64 nodes from aggregation-tree and solver coordination).
func Figure12(w io.Writer) {
	header(w, "Figure 12: scaling 8-128 nodes, stage breakdown (minutes)")
	for _, name := range []string{"Amazon", "TIMIT", "ImageNet"} {
		fmt.Fprintf(w, "-- %s --\n", name)
		fmt.Fprintf(w, "%6s %10s %10s %10s %10s %10s %10s %8s\n",
			"nodes", "loadTrain", "featurize", "solve", "loadTest", "eval", "total", "ideal")
		base := 0.0
		for _, n := range []int{8, 16, 32, 64, 128} {
			s := baselines.FigureTwelveModel(name, cluster.R3_4XLarge(n))
			if n == 8 {
				base = s.Total()
			}
			ideal := base * 8 / float64(n)
			fmt.Fprintf(w, "%6d %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %8.1f\n",
				n, s.LoadTrain, s.Featurize, s.Solve, s.LoadTest, s.Eval, s.Total(), ideal)
		}
	}
}

// imageDatasetForCaching builds the VOC-like training set used by the
// caching experiments.
func imageDatasetForCaching(scale Scale) workload.Labeled {
	n := 50
	if scale == Full {
		n = 96
	}
	return workload.Images(n, 96, 3, 4, 40, 4)
}

var _ = image.New // keep the image import for the build tags above
