package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheManagerConcurrentAccess hammers the cache from many
// goroutines; the manager must stay consistent (no panics, accounting
// stays within budget).
func TestCacheManagerConcurrentAccess(t *testing.T) {
	m := NewCacheManager(10_000, NewLRUPolicy())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%40)
				if i%3 == 0 {
					m.put(key, i, 500)
				} else if i%7 == 0 {
					contains(m, key)
				} else {
					m.get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if used := m.Stats().UsedBytes; used > 10_000 || used < 0 {
		t.Errorf("cache accounting broken after concurrent access: used=%d", used)
	}
}

// TestCacheManagerTinyBudgetChurn drives every policy with a budget so
// small that almost every admission forces evictions, from many
// goroutines mixing put/get/Contains/Stats — the workload
// the parallel DAG scheduler generates when shared subtrees race for a
// starved cache. Run under -race this exercises every lock path.
func TestCacheManagerTinyBudgetChurn(t *testing.T) {
	policies := map[string]func() CachePolicy{
		"lru":    func() CachePolicy { return NewLRUPolicy() },
		"pinned": func() CachePolicy { return NewPinnedSetPolicy([]string{"k0", "k1", "k2"}) },
		"rule":   func() CachePolicy { return NewRuleBasedPolicy([]string{"k3", "k4"}) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			const budget = 1200
			m := NewCacheManager(budget, mk())
			var wg sync.WaitGroup
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						key := fmt.Sprintf("k%d", (g*17+i)%8)
						switch i % 11 {
						case 0, 1, 2:
							m.put(key, i, int64(100+(i%5)*150))
						case 3, 4:
							contains(m, key)
						case 6:
							m.Stats()
						default:
							m.get(key)
						}
					}
				}(g)
			}
			wg.Wait()
			st := m.Stats()
			if st.UsedBytes > budget || st.UsedBytes < 0 {
				t.Errorf("cache accounting broken after churn: used=%d budget=%d", st.UsedBytes, budget)
			}
			if st.Hits < 0 || st.Misses < 0 {
				t.Errorf("negative counters: hits=%d misses=%d", st.Hits, st.Misses)
			}
		})
	}
}

// TestCacheManagerContainsDoesNotTouchStats pins the planning-peek
// contract the parallel scheduler relies on: Contains must not count an
// access or disturb LRU recency ordering.
func TestCacheManagerContainsDoesNotTouchStats(t *testing.T) {
	m := NewCacheManager(1000, NewLRUPolicy())
	m.put("a", 1, 400)
	m.put("b", 2, 400)
	before := m.Stats()
	for i := 0; i < 10; i++ {
		if !contains(m, "a") {
			t.Fatal("Contains lost entry a")
		}
		if contains(m, "zzz") {
			t.Fatal("Contains invented entry zzz")
		}
	}
	if after := m.Stats(); after != before {
		t.Errorf("Contains touched stats: %+v -> %+v", before, after)
	}
	// Recency must be untouched: "a" is still oldest and evicts first.
	m.put("c", 3, 400)
	if contains(m, "a") {
		t.Error("peeking at a should not have refreshed its recency; a should have been evicted")
	}
	if !contains(m, "b") {
		t.Error("b should have survived the eviction")
	}
}

// TestConcurrentMapsShareNoState runs two contexts over the same
// collection concurrently; results must be independent and correct.
func TestConcurrentMapsShareNoState(t *testing.T) {
	items := make([]any, 500)
	for i := range items {
		items[i] = i
	}
	c := FromSlice(items, 8)
	var wg sync.WaitGroup
	results := make([]*Collection, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := NewContext(2)
			results[r] = ctx.Map(c, func(x any) any { return x.(int) * (r + 1) })
		}(r)
	}
	wg.Wait()
	for r, res := range results {
		for i, v := range res.Collect() {
			if v.(int) != i*(r+1) {
				t.Fatalf("run %d corrupted at %d: %v", r, i, v)
			}
		}
	}
}
