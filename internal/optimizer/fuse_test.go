package optimizer

import (
	"reflect"
	"slices"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// sumEst is a ChainEstimator fixture over []float64 records: it fits the
// sum of the records' last elements, and its fused form absorbs up to
// absorb of the chain's last operators. offered records what it was
// offered.
type sumEst struct {
	absorb  int
	offered []string
}

func (e *sumEst) Name() string { return "sum" }

func (e *sumEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return &sumModel{sum: sumLast(data(), nil)}
}

func (e *sumEst) FuseChain(chain []core.TransformOp) (int, core.EstimatorOp) {
	for _, op := range chain {
		e.offered = append(e.offered, op.Name())
	}
	n := min(e.absorb, len(chain))
	return n, &fusedSumEst{chain: chain[len(chain)-n:]}
}

type fusedSumEst struct{ chain []core.TransformOp }

func (e *fusedSumEst) Name() string { return "sum[fused]" }

func (e *fusedSumEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return &sumModel{sum: sumLast(data(), e.chain)}
}

func sumLast(c *engine.Collection, chain []core.TransformOp) float64 {
	var s float64
	for _, rec := range c.Collect() {
		for _, op := range chain {
			rec = op.Apply(rec)
		}
		x := rec.([]float64)
		s += x[len(x)-1]
	}
	return s
}

// sumModel appends the fitted sum; as a ChainOp it absorbs whatever chain
// it is offered.
type sumModel struct{ sum float64 }

func (m *sumModel) Name() string { return "sum.model" }

func (m *sumModel) Apply(in any) any { return append(slices.Clone(in.([]float64)), m.sum) }

func (m *sumModel) FuseChain(chain []core.TransformOp) (int, func() func(any) any) {
	return len(chain), func() func(any) any {
		return func(in any) any {
			for _, op := range chain {
				in = op.Apply(in)
			}
			return m.Apply(in)
		}
	}
}

func appendVec(name string, v float64) core.TransformOp {
	return core.TypedTransform(name, func(x []float64) []float64 { return append(slices.Clone(x), v) })
}

// TestFuseFit: a ChainEstimator is offered the chain behind it, cut at the
// first step something else reads, and none when the chain's output has a
// reader outside the fusion. The fit graph fits and applies through what
// the estimator absorbs, the logical graph is left as it was, and the
// fit's models and output equal the unfused fit's.
func TestFuseFit(t *testing.T) {
	for _, c := range []struct {
		name     string
		absorb   int
		reader   string // "", or the step a gather at the sink also reads
		offered  []string
		fitGraph string // "" when nothing fuses
	}{
		{"absorbs two", 2, "", []string{"a", "b", "c"}, `#0 source source
#2 transform a <- [#0]
#5 estimator sum[fused] <- [#2]
#6 apply apply <- [#5, #2]
#7 transform d <- [#6]
`},
		{"declines", 0, "", []string{"a", "b", "c"}, ""},
		{"cut at a shared step", 2, "b", []string{"c"}, `#0 source source
#2 transform a <- [#0]
#3 transform b <- [#2]
#5 estimator sum[fused] <- [#3]
#6 apply apply <- [#5, #3]
#7 transform d <- [#6]
#8 gather gather <- [#7, #3]
`},
		{"chain output read elsewhere", 2, "c", nil, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(est core.EstimatorOp) *core.Graph {
				g := core.NewGraph()
				a := g.AddTransform(appendVec("a", 1), g.Source)
				b := g.AddTransform(appendVec("b", 2), a)
				cc := g.AddTransform(appendVec("c", 3), b)
				out := g.AddTransform(appendVec("d", 4), fitOn(g, est, cc))
				if c.reader != "" {
					g.AddGather([]*core.Node{out, map[string]*core.Node{"b": b, "c": cc}[c.reader]})
				}
				return g
			}
			recs := make([]any, 40)
			for i := range recs {
				recs[i] = []float64{float64(i)}
			}
			data := engine.FromSlice(recs, 3)
			cfg := Config{Level: LevelPipeline, Resources: cluster.Local(2), SampleSizes: [2]int{8, 16}, Parallelism: 1}

			est := &sumEst{absorb: c.absorb}
			g := build(est)
			logical := g.String()
			plan := Optimize(g, data, nil, cfg)
			if !reflect.DeepEqual(est.offered, c.offered) {
				t.Errorf("offered %v, want %v", est.offered, c.offered)
			}
			if g.String() != logical {
				t.Errorf("the logical graph changed:\n%s\nwant\n%s", g.String(), logical)
			}
			got := ""
			if plan.fit != nil {
				got = plan.fit.String()
			}
			if got != c.fitGraph {
				t.Errorf("fit graph\n%s\nwant\n%s", got, c.fitGraph)
			}
			models, out, _ := plan.Execute(data, nil, 1)

			want := build(&sumEst{})
			wantModels, wantOut, _ := Optimize(want, data, nil, Config{Level: LevelNone}).Execute(data, nil, 1)
			if !reflect.DeepEqual(models, wantModels) || !reflect.DeepEqual(out.Collect(), wantOut.Collect()) {
				t.Errorf("fit gave models %v and output %v, want %v and %v", models, out.Collect(), wantModels, wantOut.Collect())
			}
		})
	}
}

// TestFuseFitChainOp: a transform step whose operator is a ChainOp takes
// over the chain feeding it in the fit graph, as in the run form: SIFT
// applies Grayscale fused to the source images. A Grayscale step that
// something else also reads stays a step of its own. Either way the
// logical graph is left as it was and the fit's output equals the
// unfused fit's.
func TestFuseFitChainOp(t *testing.T) {
	for _, c := range []struct {
		name     string
		shared   bool // a second branch also reads the grayscale images
		fitGraph string
	}{
		{"grayscale into sift", false, `#0 source source
#3 transform image.grayscale+image.sift <- [#0]
#4 transform image.flatten <- [#3]
`},
		{"grayscale read elsewhere", true, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func() *core.Graph {
				g := core.NewGraph()
				gray := g.AddTransform(image.GrayscaleOp(), g.Source)
				out := g.AddTransform(image.Flatten(), g.AddTransform(&image.SIFT{}, gray))
				if c.shared {
					g.AddGather([]*core.Node{out, g.AddTransform(image.ImageToVector(), gray)})
				}
				return g
			}
			rng := linalg.NewRNG(7)
			recs := make([]any, 24)
			for i := range recs {
				im := image.New(20, 20, 3)
				for j := range im.Pix {
					im.Pix[j] = rng.Float64()
				}
				recs[i] = im
			}
			data := engine.FromSlice(recs, 3)
			g := build()
			logical := g.String()
			plan := Optimize(g, data, nil, Config{Level: LevelPipeline, Resources: cluster.Local(2), SampleSizes: [2]int{8, 16}, Parallelism: 1})
			if g.String() != logical {
				t.Errorf("the logical graph changed:\n%s\nwant\n%s", g.String(), logical)
			}
			got := ""
			if plan.fit != nil {
				got = plan.fit.String()
			}
			if got != c.fitGraph {
				t.Errorf("fit graph\n%s\nwant\n%s", got, c.fitGraph)
			}
			_, out, _ := plan.Execute(data, nil, 2)
			_, wantOut, _ := Optimize(build(), data, nil, Config{Level: LevelNone}).Execute(data, nil, 1)
			if !reflect.DeepEqual(out.Collect(), wantOut.Collect()) {
				t.Error("the fused fit's output differs from the unfused fit's")
			}
		})
	}
}
