package keystone

import "testing"

// TestPrebuiltTopologies pins the five prebuilt pipelines' DAGs — node
// order, kinds, operator names and edges — at fixed configs, so a change
// to how they are built cannot silently change what is built.
func TestPrebuiltTopologies(t *testing.T) {
	vision := VisionConfig{PCADims: 12, GMMComponents: 6, SampleDescs: 30, Seed: 9, Iterations: 20}
	lcs := vision
	lcs.WithLCS = true
	cases := []struct {
		name string
		got  string
		want string
	}{
		{"Text", TextPipeline(TextConfig{NumFeatures: 1500, Iterations: 20}).String(), `#0 source source
#2 transform text.trim <- [#0]
#3 transform text.lowercase <- [#2]
#4 transform text.tokenize <- [#3]
#5 transform text.ngrams[1-2] <- [#4]
#6 transform text.termfreq <- [#5]
#7 estimator text.commonsparse <- [#6]
#8 apply apply <- [#7, #6]
#1 labels labels
#9 estimator solver.logistic[logical] <- [#8, #1]
#10 apply apply <- [#9, #8]
`},
		{"Speech", SpeechPipeline(SpeechConfig{InputDim: 40, NumFeatures: 192, Seed: 7, Iterations: 20}).String(), `#0 source source
#2 transform speech.randomfeatures <- [#0]
#3 transform speech.randomfeatures <- [#0]
#4 gather gather <- [#2, #3]
#1 labels labels
#5 estimator solver.linear[logical] <- [#4, #1]
#6 apply apply <- [#5, #4]
`},
		{"Vision", VisionPipeline(vision).String(), `#0 source source
#2 transform image.grayscale <- [#0]
#3 transform image.sift <- [#2]
#4 transform image.columnsample <- [#3]
#5 estimator image.descpca.est[pca[logical]] <- [#4]
#6 apply apply <- [#5, #4]
#7 estimator fisher.est <- [#6]
#8 apply apply <- [#7, #6]
#9 transform features.normalize <- [#8]
#1 labels labels
#10 estimator solver.linear[logical] <- [#9, #1]
#11 apply apply <- [#10, #9]
`},
		{"VisionLCS", VisionPipeline(lcs).String(), `#0 source source
#2 transform image.grayscale <- [#0]
#3 transform image.sift <- [#2]
#4 transform image.columnsample <- [#3]
#5 estimator image.descpca.est[pca[logical]] <- [#4]
#6 apply apply <- [#5, #4]
#7 estimator fisher.est <- [#6]
#8 apply apply <- [#7, #6]
#9 transform features.normalize <- [#8]
#10 transform image.lcs <- [#0]
#11 transform image.columnsample <- [#10]
#12 estimator image.descpca.est[pca[logical]] <- [#11]
#13 apply apply <- [#12, #11]
#14 estimator fisher.est <- [#13]
#15 apply apply <- [#14, #13]
#16 transform features.normalize <- [#15]
#17 gather gather <- [#9, #16]
#1 labels labels
#18 estimator solver.linear[logical] <- [#17, #1]
#19 apply apply <- [#18, #17]
`},
		{"Cifar", CifarPipeline(CifarConfig{NumFilters: 12, Seed: 23, Iterations: 20}).String(), `#0 source source
#2 estimator cifar.convfilters <- [#0]
#3 apply apply <- [#2, #0]
#4 transform image.pool <- [#3]
#5 transform image.tovector <- [#4]
#6 transform image.symrect[0.25] <- [#5]
#1 labels labels
#7 estimator solver.linear[logical] <- [#6, #1]
#8 apply apply <- [#7, #6]
`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s topology:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}
