package experiments

import (
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/optimizer"
)

// goldenNode is one pinned pipeline-profile entry.
type goldenNode struct {
	id     int
	name   string
	kind   core.NodeKind
	weight int
	size   int64
}

// goldenProfiles pins the whole-pipeline profile of the five paper
// pipelines at LevelPipeline, at both sample-size settings
// TestDefaultSamplesPlanLikeFixedSizes compares: per node its name, kind,
// weight and extrapolated output size, plus the sample sizes the
// profile was measured on. Times are not pinned; they are measurements.
// The profile is of the fit graph, so a fused step carries its fused
// name and the steps it absorbed are not profiled.
var goldenProfiles = []struct {
	pipeline string
	config   [2]int // optimizer.Config.SampleSizes
	sampled  [2]int // Profile.SampleSizes
	chosen   int    // len(Plan.Chosen): no selection at LevelPipeline
	nodes    []goldenNode
}{
	{"Amazon", [2]int{0, 0}, [2]int{75, 150}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 293832},
		{1, "labels", core.KindLabels, 1, 48000},
		{7, "text.commonsparse[fused]", core.KindEstimator, 1, 0},
		{8, "apply", core.KindApplyModel, 1, 1097344},
		{9, "solver.logistic[logical]", core.KindEstimator, 20, 0},
		{10, "apply", core.KindApplyModel, 1, 48000},
	}},
	{"Amazon", [2]int{256, 512}, [2]int{256, 512}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 295415},
		{1, "labels", core.KindLabels, 1, 48000},
		{7, "text.commonsparse[fused]", core.KindEstimator, 1, 0},
		{8, "apply", core.KindApplyModel, 1, 1051387},
		{9, "solver.logistic[logical]", core.KindEstimator, 20, 0},
		{10, "apply", core.KindApplyModel, 1, 48000},
	}},
	{"TIMIT", [2]int{0, 0}, [2]int{75, 150}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 412800},
		{1, "labels", core.KindLabels, 1, 105600},
		{2, "speech.randomfeatures", core.KindTransform, 1, 950400},
		{4, "gather", core.KindGather, 1, 1872000},
		{5, "solver.linear[logical]", core.KindEstimator, 20, 0},
		{6, "apply", core.KindApplyModel, 1, 105600},
	}},
	{"TIMIT", [2]int{256, 512}, [2]int{256, 512}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 412800},
		{1, "labels", core.KindLabels, 1, 105600},
		{2, "speech.randomfeatures", core.KindTransform, 1, 950400},
		{4, "gather", core.KindGather, 1, 1872000},
		{5, "solver.linear[logical]", core.KindEstimator, 20, 0},
		{6, "apply", core.KindApplyModel, 1, 105600},
	}},
	{"VOC", [2]int{0, 0}, [2]int{32, 64}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 1478400},
		{1, "labels", core.KindLabels, 1, 4480},
		{3, "image.grayscale+image.sift", core.KindTransform, 1, 2097920},
		{4, "image.columnsample", core.KindTransform, 1, 2097920},
		{5, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{6, "apply", core.KindApplyModel, 1, 241920},
		{7, "fisher.est", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 94080},
		{9, "features.normalize", core.KindTransform, 1, 94080},
		{10, "solver.linear[logical]", core.KindEstimator, 20, 0},
		{11, "apply", core.KindApplyModel, 1, 4480},
	}},
	{"VOC", [2]int{256, 512}, [2]int{80, 80}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 1478400},
		{1, "labels", core.KindLabels, 1, 4480},
		{3, "image.grayscale+image.sift", core.KindTransform, 1, 2097920},
		{4, "image.columnsample", core.KindTransform, 1, 2097920},
		{5, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{6, "apply", core.KindApplyModel, 1, 241920},
		{7, "fisher.est", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 94080},
		{9, "features.normalize", core.KindTransform, 1, 94080},
		{10, "solver.linear[logical]", core.KindEstimator, 20, 0},
		{11, "apply", core.KindApplyModel, 1, 4480},
	}},
	{"CIFAR-10", [2]int{0, 0}, [2]int{32, 64}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 2363904},
		{1, "labels", core.KindLabels, 1, 5376},
		{2, "cifar.convfilters", core.KindEstimator, 1, 0},
		{3, "apply", core.KindApplyModel, 1, 4821504},
		{4, "image.pool", core.KindTransform, 1, 102912},
		{5, "image.tovector", core.KindTransform, 1, 100608},
		{6, "image.symrect[0.25]", core.KindTransform, 1, 198912},
		{7, "solver.linear[logical]", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 5376},
	}},
	{"CIFAR-10", [2]int{256, 512}, [2]int{96, 96}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 2363904},
		{1, "labels", core.KindLabels, 1, 5376},
		{2, "cifar.convfilters", core.KindEstimator, 1, 0},
		{3, "apply", core.KindApplyModel, 1, 4821504},
		{4, "image.pool", core.KindTransform, 1, 102912},
		{5, "image.tovector", core.KindTransform, 1, 100608},
		{6, "image.symrect[0.25]", core.KindTransform, 1, 198912},
		{7, "solver.linear[logical]", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 5376},
	}},
	{"VOC-LCS", [2]int{0, 0}, [2]int{32, 64}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 5313024},
		{1, "labels", core.KindLabels, 1, 5376},
		{3, "image.grayscale+image.sift", core.KindTransform, 1, 2517504},
		{4, "image.columnsample", core.KindTransform, 1, 1511424},
		{5, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{6, "apply", core.KindApplyModel, 1, 129024},
		{7, "fisher.est", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 76032},
		{9, "features.normalize", core.KindTransform, 1, 76032},
		{10, "image.lcs", core.KindTransform, 1, 251136},
		{11, "image.columnsample", core.KindTransform, 1, 105984},
		{12, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{13, "apply", core.KindApplyModel, 1, 105984},
		{14, "fisher.est", core.KindEstimator, 10, 0},
		{15, "apply", core.KindApplyModel, 1, 57600},
		{16, "features.normalize", core.KindTransform, 1, 57600},
		{17, "gather", core.KindGather, 1, 131328},
		{18, "solver.linear[logical]", core.KindEstimator, 10, 0},
		{19, "apply", core.KindApplyModel, 1, 5376},
	}},
	{"VOC-LCS", [2]int{256, 512}, [2]int{96, 96}, 0, []goldenNode{
		{0, "source", core.KindSource, 1, 5313024},
		{1, "labels", core.KindLabels, 1, 5376},
		{3, "image.grayscale+image.sift", core.KindTransform, 1, 2517504},
		{4, "image.columnsample", core.KindTransform, 1, 1511424},
		{5, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{6, "apply", core.KindApplyModel, 1, 129024},
		{7, "fisher.est", core.KindEstimator, 10, 0},
		{8, "apply", core.KindApplyModel, 1, 76032},
		{9, "features.normalize", core.KindTransform, 1, 76032},
		{10, "image.lcs", core.KindTransform, 1, 251136},
		{11, "image.columnsample", core.KindTransform, 1, 105984},
		{12, "image.descpca.est[pca[logical]]", core.KindEstimator, 1, 0},
		{13, "apply", core.KindApplyModel, 1, 105984},
		{14, "fisher.est", core.KindEstimator, 10, 0},
		{15, "apply", core.KindApplyModel, 1, 57600},
		{16, "features.normalize", core.KindTransform, 1, 57600},
		{17, "gather", core.KindGather, 1, 131328},
		{18, "solver.linear[logical]", core.KindEstimator, 10, 0},
		{19, "apply", core.KindApplyModel, 1, 5376},
	}},
}

// TestProfileGolden runs the profile of every paper pipeline and checks
// it against the pinned table, so a change to how profiling executes the
// pipeline cannot silently change what the planner is given.
func TestProfileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := map[string]workloadSpec{}
	for _, s := range paperPipelines() {
		specs[s.name] = s
	}
	for _, want := range goldenProfiles {
		spec := specs[want.pipeline]
		p := optimizer.Optimize(spec.build(), spec.train.Data, spec.train.Labels, optimizer.Config{
			Level: optimizer.LevelPipeline, Resources: cluster.Local(4),
			NumClasses: spec.numClasses, SampleSizes: want.config,
		})
		at := func(format string, args ...any) {
			t.Helper()
			t.Errorf("%s at %v: "+format, append([]any{want.pipeline, want.config}, args...)...)
		}
		if p.Profile.SampleSizes != want.sampled {
			at("SampleSizes %v, want %v", p.Profile.SampleSizes, want.sampled)
		}
		if len(p.Chosen) != want.chosen {
			at("Chosen %v, want %d entries", p.Chosen, want.chosen)
		}
		if len(p.Profile.Nodes) != len(want.nodes) {
			at("%d profiled nodes, want %d", len(p.Profile.Nodes), len(want.nodes))
		}
		for _, w := range want.nodes {
			n := p.Profile.Nodes[w.id]
			if n == nil {
				at("node %d %s not profiled", w.id, w.name)
				continue
			}
			if got := (goldenNode{w.id, n.Name, n.Kind, n.Weight, n.SizeBytes}); got != w {
				at("node %d: got %+v, want %+v", w.id, got, w)
			}
		}
	}
}
