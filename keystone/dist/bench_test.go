package dist

import (
	"context"
	"testing"

	"keystoneml/keystone"
)

// BenchmarkFitText is text-dist's fit at the benchmark's scale: 12 000
// synthetic reviews, the Figure 2 pipeline at 5 000 features, two
// in-process workers over loopback TCP. Workers and coordinator share
// the process, so -benchmem counts both ends of the wire:
//
//	GOMAXPROCS=1 go test -run '^$' -bench FitText -benchmem ./keystone/dist
func BenchmarkFitText(b *testing.B) {
	train := keystone.SyntheticReviews(12000, 1)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 5000, Iterations: 20})
	addrs := make([]string, 2)
	for i := range addrs {
		w, err := StartWorker(WorkerOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	cl, err := Connect(addrs...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	opts := FitOptions{Partitions: 2}
	if _, _, err := Fit(context.Background(), cl, p, train.Records, train.Labels, opts); err != nil {
		b.Fatal(err) // warm-up: the first fit also pays the kernel probes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fit(context.Background(), cl, p, train.Records, train.Labels, opts); err != nil {
			b.Fatal(err)
		}
	}
}
