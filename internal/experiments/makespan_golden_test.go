package experiments

import (
	"fmt"
	"math"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/optimizer"
)

// syntheticProfile prices every node of g from its ID alone, so the
// planner's inputs are fixed: times in [0.05, 0.15) s on operator nodes
// (estimators three times that), zero on sources and labels, and sizes
// in [1, 17] kB.
func syntheticProfile(g *core.Graph) *optimizer.Profile {
	prof := &optimizer.Profile{Nodes: map[int]*optimizer.NodeProfile{}, FullN: 1000}
	for _, n := range g.Topological() {
		t := 0.0
		switch n.Kind {
		case core.KindSource, core.KindLabels:
		case core.KindEstimator:
			t = 3 * (0.05 + 0.01*float64((n.ID*7)%11))
		default:
			t = 0.05 + 0.01*float64((n.ID*7)%11)
		}
		prof.Nodes[n.ID] = &optimizer.NodeProfile{
			Name: n.OpName(), Kind: n.Kind, Weight: n.Weight(),
			TimeSec: t, SizeBytes: int64(1000 * (1 + (n.ID*13)%17)),
		}
	}
	return prof
}

// goldenMakespans pins, per paper pipeline under syntheticProfile, the
// cache set GreedyCacheSet picks and the Float64bits of the makespan of
// no pins and of that set: at one, two and four DAG workers, with an
// unlimited and a 20 kB budget, and behind a four-worker remote
// placement. They were recorded before the planner shared its
// graph-invariant state across candidates and the simulator's run heap
// became typed; neither may move a bit.
var goldenMakespans = []string{
	"Amazon dist=false workers=1 budget=0: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=false workers=1 budget=20000: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=false workers=2 budget=0: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=false workers=2 budget=20000: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=false workers=4 budget=0: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=false workers=4 budget=20000: set [6 8], none 0x402c47ae147ae149, pinned 0x3ff63d70a3d70a3f",
	"Amazon dist=true workers=1 budget=0: set [6 8], none 0x40116fd4bf0995ac, pinned 0x3fec42aed1394318",
	"Amazon dist=true workers=1 budget=20000: set [6 8], none 0x40116fd4bf0995ac, pinned 0x3fec42aed1394318",
	"TIMIT dist=false workers=1 budget=0: set [4], none 0x401df5c28f5c28f6, pinned 0x3fe6147ae147ae15",
	"TIMIT dist=false workers=1 budget=20000: set [4], none 0x401df5c28f5c28f6, pinned 0x3fe6147ae147ae15",
	"TIMIT dist=false workers=2 budget=0: set [4], none 0x40173d70a3d70a3d, pinned 0x3fe3851eb851eb86",
	"TIMIT dist=false workers=2 budget=20000: set [4], none 0x40173d70a3d70a3d, pinned 0x3fe3851eb851eb86",
	"TIMIT dist=false workers=4 budget=0: set [4], none 0x40173d70a3d70a3d, pinned 0x3fe3851eb851eb86",
	"TIMIT dist=false workers=4 budget=20000: set [4], none 0x40173d70a3d70a3d, pinned 0x3fe3851eb851eb86",
	"TIMIT dist=true workers=1 budget=0: set [4], none 0x40019652bd3c3612, pinned 0x3fd5c2e33eff1950",
	"TIMIT dist=true workers=1 budget=20000: set [4], none 0x40019652bd3c3612, pinned 0x3fd5c2e33eff1950",
	"VOC dist=false workers=1 budget=0: set [4 6 9], none 0x40340a3d70a3d70b, pinned 0x3ff8000000000001",
	"VOC dist=false workers=1 budget=20000: set [4 6 8], none 0x40340a3d70a3d70b, pinned 0x4010666666666667",
	"VOC dist=false workers=2 budget=0: set [4 6 9], none 0x40340a3d70a3d70b, pinned 0x3ff8000000000001",
	"VOC dist=false workers=2 budget=20000: set [4 6 8], none 0x40340a3d70a3d70b, pinned 0x4010666666666667",
	"VOC dist=false workers=4 budget=0: set [4 6 9], none 0x40340a3d70a3d70b, pinned 0x3ff8000000000001",
	"VOC dist=false workers=4 budget=20000: set [4 6 8], none 0x40340a3d70a3d70b, pinned 0x4010666666666667",
	"VOC dist=true workers=1 budget=0: set [4 6 9], none 0x4018015a07b352a9, pinned 0x3fef5e8922531120",
	"VOC dist=true workers=1 budget=20000: set [4 6 8], none 0x4018015a07b352a9, pinned 0x3ffb619b90ea9e70",
	"CIFAR-10 dist=false workers=1 budget=0: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=false workers=1 budget=20000: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=false workers=2 budget=0: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=false workers=2 budget=20000: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=false workers=4 budget=0: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=false workers=4 budget=20000: set [6], none 0x4017147ae147ae14, pinned 0x3ff11eb851eb8520",
	"CIFAR-10 dist=true workers=1 budget=0: set [6], none 0x3fff5ea897635e74, pinned 0x3fe5f8ca8198f1d5",
	"CIFAR-10 dist=true workers=1 budget=20000: set [6], none 0x3fff5ea897635e74, pinned 0x3fe5f8ca8198f1d5",
	"VOC-LCS dist=false workers=1 budget=0: set [4 6 11 13 17], none 0x40367851eb851eb9, pinned 0x40071eb851eb8521",
	"VOC-LCS dist=false workers=1 budget=20000: set [6 11 17], none 0x40367851eb851eb9, pinned 0x40101eb851eb851f",
	"VOC-LCS dist=false workers=2 budget=0: set [4 6 11 13 17], none 0x402dd70a3d70a3d9, pinned 0x3ffb5c28f5c28f5d",
	"VOC-LCS dist=false workers=2 budget=20000: set [6 11 17], none 0x402dd70a3d70a3d9, pinned 0x4004147ae147ae15",
	"VOC-LCS dist=false workers=4 budget=0: set [4 6 11 13 17], none 0x402dd70a3d70a3d9, pinned 0x3ffb5c28f5c28f5d",
	"VOC-LCS dist=false workers=4 budget=20000: set [6 11 17], none 0x402dd70a3d70a3d9, pinned 0x4004147ae147ae15",
	"VOC-LCS dist=true workers=1 budget=0: set [4 6 11 13 17], none 0x401d43126e978d51, pinned 0x3fff950dae3e6c4c",
	"VOC-LCS dist=true workers=1 budget=20000: set [6 11 17], none 0x401d43126e978d51, pinned 0x40026f73c0c1fc90",
}

// TestMakespanGolden: the planner's cost model gives the recorded bits
// and picks the recorded sets on the five paper pipelines.
func TestMakespanGolden(t *testing.T) {
	var got []string
	for _, spec := range paperPipelines() {
		g := spec.build()
		for _, dist := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				if dist && workers > 1 {
					continue
				}
				for _, budget := range []int64{0, 20_000} {
					prof := syntheticProfile(g)
					if dist {
						out := make(map[int]int64, len(prof.Nodes))
						for id, np := range prof.Nodes {
							out[id] = np.SizeBytes
						}
						prof.Dist = &core.DistModel{Workers: 4, StageLatencySec: 0.002, NetSecPerByte: 1e-8, OutBytes: out}
					}
					set := optimizer.GreedyCacheSet(g, prof, budget, workers)
					none := optimizer.ScheduleFor(g, prof, nil, workers).Makespan()
					pinned := optimizer.ScheduleFor(g, prof, set, workers).Makespan()
					got = append(got, fmt.Sprintf("%s dist=%v workers=%d budget=%d: set %v, none %#016x, pinned %#016x",
						spec.name, dist, workers, budget, set, math.Float64bits(none), math.Float64bits(pinned)))
				}
			}
		}
	}
	if len(got) != len(goldenMakespans) {
		t.Fatalf("%d cases, want %d", len(got), len(goldenMakespans))
	}
	for i, w := range goldenMakespans {
		if got[i] != w {
			t.Errorf("got  %s\nwant %s", got[i], w)
		}
	}
}
