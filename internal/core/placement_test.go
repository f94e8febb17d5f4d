package core

import (
	"reflect"
	"testing"

	"keystoneml/internal/engine"
)

// opaquePlacement is a remote placement without the sockets: it computes
// with the engine, but hands the walker handles it cannot look inside.
type opaquePlacement struct{ ctx *engine.Context }

type opaqueHandle struct{ c *engine.Collection }

func (o opaquePlacement) Source(data *engine.Collection) (Dataset, error) {
	return &opaqueHandle{data}, nil
}

func (o opaquePlacement) Apply(in Dataset, op TransformOp) (Dataset, error) {
	return &opaqueHandle{o.ctx.Map(in.(*opaqueHandle).c, op.Apply)}, nil
}

func (o opaquePlacement) Zip(a, b Dataset) (Dataset, error) {
	return &opaqueHandle{o.ctx.Zip(a.(*opaqueHandle).c, b.(*opaqueHandle).c, ConcatFeatures)}, nil
}

func (o opaquePlacement) Fetch(d Dataset) (*engine.Collection, error) {
	return d.(*opaqueHandle).c, nil
}

func (o opaquePlacement) Size(Dataset) int64 { return 0 }
func (o opaquePlacement) Release(Dataset)    {}
func (o opaquePlacement) Close()             {}

// call is one placement call the walker made: the datasets it read and
// the one it got back (-1 for none), numbered in the order the placement
// issued them.
type call struct {
	op  string
	in  []int
	out int
}

// recorder logs every call the walker makes on the placement it wraps,
// and which datasets it was asked to size.
type recorder struct {
	Placement
	t      *testing.T
	ids    map[Dataset]int
	log    []call
	sized  []int
	closed bool
}

func (r *recorder) note(op string, out Dataset, in ...Dataset) {
	c := call{op: op, out: -1}
	for _, d := range in {
		id, ok := r.ids[d]
		if !ok {
			r.t.Fatalf("%s: walker passed a handle the placement never issued: %T", op, d)
		}
		c.in = append(c.in, id)
	}
	if out != nil {
		if _, ok := r.ids[out]; !ok {
			r.ids[out] = len(r.ids)
		}
		c.out = r.ids[out]
	}
	r.log = append(r.log, c)
}

func (r *recorder) Source(data *engine.Collection) (Dataset, error) {
	d, err := r.Placement.Source(data)
	r.note("source", d)
	return d, err
}

func (r *recorder) Apply(in Dataset, op TransformOp) (Dataset, error) {
	d, err := r.Placement.Apply(in, op)
	r.note("apply "+op.Name(), d, in)
	return d, err
}

func (r *recorder) Zip(a, b Dataset) (Dataset, error) {
	d, err := r.Placement.Zip(a, b)
	r.note("zip", d, a, b)
	return d, err
}

func (r *recorder) Fetch(d Dataset) (*engine.Collection, error) {
	r.note("fetch", nil, d)
	return r.Placement.Fetch(d)
}

func (r *recorder) Size(d Dataset) int64 {
	id, ok := r.ids[d]
	if !ok {
		r.t.Fatalf("size: walker passed a handle the placement never issued: %T", d)
	}
	r.sized = append(r.sized, id)
	return r.Placement.Size(d)
}

func (r *recorder) Release(d Dataset) {
	r.note("release", nil, d)
	r.Placement.Release(d)
}

func (r *recorder) Close() {
	r.closed = true
	r.Placement.Close()
}

// seamGraph is a diamond under an estimator that refetches it:
//
//	source -> a -> {b1, b2} -> gather -> estimator(w=3) -> apply
//
// with the apply-model node reading the gather a fourth time.
func seamGraph() (g *Graph, a, gather *Node) {
	g = NewGraph()
	named := func(name string) TransformOp {
		return NewTransform(name, func(in any) any { return append([]float64{1}, in.([]float64)...) })
	}
	a = g.AddTransform(named("a"), g.Source)
	b1 := g.AddTransform(named("b1"), a)
	b2 := g.AddTransform(named("b2"), a)
	gather = g.AddGather([]*Node{b1, b2})
	est := g.AddEstimator(&schedTestEst{w: 3}, gather, false)
	g.AddApplyModel(est, gather)
	return g, a, gather
}

// TestPlacementSeam drives the sequential walker through a recording
// placement, once over the local placement and once over an opaque one,
// for a pinned set that leaves the diamond to be recomputed per fetch
// and one that pins it.
func TestPlacementSeam(t *testing.T) {
	data := func() *engine.Collection {
		return engine.FromSlice([]any{[]float64{1}, []float64{2}, []float64{3}}, 2)
	}
	counts := func(rep *ExecReport) map[int][2]int {
		out := map[int][2]int{}
		for id, s := range rep.Nodes {
			out[id] = [2]int{s.Computes, s.Hits}
		}
		return out
	}
	for _, pinGather := range []bool{false, true} {
		g, a, gather := seamGraph()
		pins := []*Node{a}
		if pinGather {
			pins = append(pins, gather)
		}
		newCache := func() *engine.CacheManager {
			keys := make([]string, len(pins))
			for i, n := range pins {
				keys[i] = cacheKey(n.ID)
			}
			return engine.NewCacheManager(0, engine.NewPinnedSetPolicy(keys))
		}
		_, wantOut, wantRep := NewExecutor(g, engine.NewContext(2), newCache(), data(), nil).SetWorkers(1).Run()

		var logs [][]call
		for _, opaque := range []bool{false, true} {
			cache := newCache()
			ex := NewExecutor(g, engine.NewContext(2), cache, data(), nil)
			rec := &recorder{Placement: ex.place, t: t, ids: map[Dataset]int{}}
			if opaque {
				rec.Placement = opaquePlacement{engine.NewContext(2)}
			}
			_, out, rep := ex.SetPlacement(rec).Run()
			logs = append(logs, rec.log)

			// (c) the placement changes where operators run, not what runs.
			if got, want := counts(rep), counts(wantRep); !reflect.DeepEqual(got, want) {
				t.Errorf("pinGather=%t opaque=%t: compute/hit counts %v, want the plain sequential run's %v", pinGather, opaque, got, want)
			}
			if !opaque && !reflect.DeepEqual(out.Collect(), wantOut.Collect()) {
				t.Errorf("pinGather=%t: output differs from the plain sequential run's", pinGather)
			}
			if opaque && out != nil {
				t.Errorf("pinGather=%t: an opaque sink came back as a collection", pinGather)
			}

			// (b) only pinned outputs are sized for the cache, each once;
			// every dataset the cache refused is released exactly once,
			// after its last use; nothing the cache holds, and never the
			// source, is released; at Close only those are still live.
			if !rec.closed {
				t.Fatalf("pinGather=%t opaque=%t: placement not closed", pinGather, opaque)
			}
			for _, n := range pins {
				if _, _, ok := cache.Peek(cacheKey(n.ID)); !ok {
					t.Fatalf("pinGather=%t: node #%d not cached", pinGather, n.ID)
				}
			}
			if len(rec.sized) != len(pins) {
				t.Errorf("pinGather=%t opaque=%t: placement sized datasets %v, want only the %d pinned outputs", pinGather, opaque, rec.sized, len(pins))
			}
			pinned := map[int]bool{0: true} // dataset 0 is the source
			for _, id := range rec.sized {
				pinned[id] = true
			}
			released := map[int]bool{}
			for _, c := range rec.log {
				for _, id := range c.in {
					switch {
					case released[id]:
						t.Errorf("pinGather=%t opaque=%t: %s reads dataset %d after its release", pinGather, opaque, c.op, id)
					case c.op == "release" && pinned[id]:
						t.Errorf("pinGather=%t opaque=%t: pinned dataset %d released", pinGather, opaque, id)
					case c.op == "release":
						released[id] = true
					}
				}
			}
			for id := 0; id < len(rec.ids); id++ {
				if !pinned[id] && !released[id] {
					t.Errorf("pinGather=%t opaque=%t: temp dataset %d still live at Close", pinGather, opaque, id)
				}
			}
		}
		// (a) the walker issues the same calls whatever the placement.
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Errorf("pinGather=%t: op sequences differ\nlocal:  %v\nopaque: %v", pinGather, logs[0], logs[1])
		}
		if !pinGather && len(logs[0]) < 20 {
			t.Errorf("unpinned diamond produced only %d placement calls; the refetches did not recompute it", len(logs[0]))
		}
	}
}
