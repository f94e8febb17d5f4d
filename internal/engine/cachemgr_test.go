package engine

import (
	"sync"
	"testing"
)

// get returns the cached value for id, if present, counting the access
// as a hit or a miss and touching recency like a GetOrCompute hit.
func (m *CacheManager) get(id string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.lookupLocked(id); e != nil {
		return e.value, true
	}
	return nil, false
}

func TestCacheManagerBasicPutGet(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	if !m.put("a", "valueA", 40) {
		t.Fatal("Put a rejected")
	}
	v, ok := m.get("a")
	if !ok || v.(string) != "valueA" {
		t.Fatalf("Get a = %v, %v", v, ok)
	}
	if _, ok := m.get("missing"); ok {
		t.Error("Get missing returned ok")
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestCacheManagerLRUEviction(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	m.put("a", 1, 40)
	m.put("b", 2, 40)
	m.get("a") // a is now most recently used
	m.put("c", 3, 40)
	// b should have been evicted (LRU), a and c remain.
	if _, ok := m.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := m.get("a"); !ok {
		t.Error("a should still be cached")
	}
	if _, ok := m.get("c"); !ok {
		t.Error("c should be cached")
	}
	if ev := m.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCacheManagerAdmissionControl(t *testing.T) {
	// An object larger than the entire budget must be rejected outright
	// (this is the Spark admission-control behaviour the paper describes).
	m := NewCacheManager(100, NewLRUPolicy())
	m.put("small", 1, 30)
	if m.put("huge", 2, 500) {
		t.Error("object larger than budget admitted")
	}
	if _, ok := m.get("small"); !ok {
		t.Error("small entry was evicted by rejected huge entry")
	}
}

func TestCacheManagerUnlimitedBudget(t *testing.T) {
	m := NewCacheManager(0, NewLRUPolicy())
	for i := 0; i < 100; i++ {
		if !m.put(string(rune('a'+i%26))+string(rune('0'+i/26)), i, 1<<30) {
			t.Fatal("unlimited cache rejected a put")
		}
	}
	if used := m.Stats().UsedBytes; used != 100<<30 {
		t.Errorf("UsedBytes = %d", used)
	}
}

func TestPinnedSetPolicy(t *testing.T) {
	m := NewCacheManager(1000, NewPinnedSetPolicy([]string{"keep"}))
	if m.put("other", 1, 10) {
		t.Error("non-pinned id admitted")
	}
	if !m.put("keep", 2, 10) {
		t.Error("pinned id rejected")
	}
	if v, ok := m.get("keep"); !ok || v.(int) != 2 {
		t.Error("pinned value not retrievable")
	}
}

func TestRuleBasedPolicy(t *testing.T) {
	m := NewCacheManager(1000, NewRuleBasedPolicy([]string{"est1", "est2"}))
	if m.put("features", 1, 10) {
		t.Error("non-estimator output admitted by rule-based policy")
	}
	if !m.put("est1", 1, 10) {
		t.Error("estimator output rejected")
	}
}

func TestCacheManagerPinnedNeverEvictedForNewer(t *testing.T) {
	// Under budget pressure a pinned entry must never be the victim that
	// admits a newer entry: the newcomer is rejected instead.
	m := NewCacheManager(100, NewPinnedSetPolicy([]string{"a", "b"}))
	if !m.put("a", 1, 60) {
		t.Fatal("first pinned entry rejected")
	}
	if m.put("b", 2, 60) {
		t.Error("second pinned entry admitted by evicting the first pinned entry")
	}
	if _, ok := m.get("a"); !ok {
		t.Error("pinned entry a was evicted")
	}
	if used := m.Stats().UsedBytes; used != 60 {
		t.Errorf("UsedBytes = %d, want 60", used)
	}
	if ev := m.Stats().Evictions; ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

func TestCacheManagerDoublePut(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	m.put("a", 1, 10)
	if !m.put("a", 2, 10) {
		t.Error("re-put of cached id should report success")
	}
	if used := m.Stats().UsedBytes; used != 10 {
		t.Errorf("double put double-counted: UsedBytes = %d", used)
	}
	// Original value retained.
	if v, _ := m.get("a"); v.(int) != 1 {
		t.Errorf("value overwritten: %v", v)
	}
}

// sized returns a size function reporting n bytes for any value.
func sized(n int64) func(any) int64 { return func(any) int64 { return n } }

func TestGetOrComputeOnceThenHit(t *testing.T) {
	m := NewCacheManager(0, nil)
	calls := 0
	compute := func() any {
		calls++
		return "value"
	}
	v, how, kept := m.GetOrCompute("k", compute, sized(5))
	if v != "value" || how != Computed || !kept {
		t.Fatalf("first GetOrCompute = (%v, %v, %t), want (value, Computed, true)", v, how, kept)
	}
	v, how, kept = m.GetOrCompute("k", compute, sized(5))
	if v != "value" || how != Hit || !kept {
		t.Fatalf("second GetOrCompute = (%v, %v, %t), want (value, Hit, true)", v, how, kept)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := m.Stats()
	if st.Computes != 1 || st.Hits != 1 || st.Coalesced != 0 || st.UsedBytes != 5 {
		t.Errorf("stats = %+v, want 1 compute, 1 hit, 0 coalesced, 5 bytes", st)
	}
	if !contains(m, "k") || contains(m, "other") {
		t.Error("Contains misreports stored keys")
	}
}

func TestGetOrComputeCoalescesConcurrentDemands(t *testing.T) {
	m := NewCacheManager(0, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.GetOrCompute("k", func() any {
			close(entered)
			<-release
			return 42
		}, sized(8))
	}()
	<-entered // the computer is inside compute; a second demand must wait
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, how, _ := m.GetOrCompute("k", func() any {
			t.Error("second caller computed despite in-flight computation")
			return nil
		}, sized(0))
		if v != 42 || how == Computed {
			t.Errorf("waiter got (%v, %v), want (42, Joined or Hit)", v, how)
		}
	}()
	close(release)
	<-done
	wg.Wait()
	// Whether the second demand joined the in-flight computation
	// (coalesced) or landed after the store (hit) depends on goroutine
	// timing; either way exactly one computation ran and one demand was
	// served by reuse.
	st := m.Stats()
	if st.Computes != 1 || st.Coalesced+st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 compute and 1 reuse (hit or coalesced)", st)
	}
}

func TestGetOrComputePanicReleasesWaitersToRetry(t *testing.T) {
	m := NewCacheManager(0, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.GetOrCompute("k", func() any {
			close(entered)
			<-release
			panic("fit canceled")
		}, sized(0))
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		// This caller joins the doomed flight, then must retry and
		// compute the value itself.
		v, how, _ := m.GetOrCompute("k", func() any { return "recovered" }, sized(3))
		if v != "recovered" || how != Computed {
			t.Errorf("retry got (%v, %v), want (recovered, Computed)", v, how)
		}
	}()
	close(release)
	if r := <-panicked; r != "fit canceled" {
		t.Fatalf("computer recovered %v, want the original panic", r)
	}
	<-done
	if st := m.Stats(); st.Computes != 1 {
		t.Errorf("computes = %d, want 1 (the panicked attempt is not counted)", st.Computes)
	}
	if !contains(m, "k") {
		t.Error("retried value was not stored")
	}
}

func TestGetOrComputeBudgetEvictsLRU(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	value := func(v string) func() any { return func() any { return v } }
	m.GetOrCompute("a", value("a"), sized(60))
	m.GetOrCompute("b", value("b"), sized(30))
	m.GetOrCompute("a", value("a"), sized(60)) // refresh a's recency
	m.GetOrCompute("c", value("c"), sized(30)) // evicts b (oldest)
	if !contains(m, "a") || contains(m, "b") || !contains(m, "c") {
		t.Errorf("after eviction: a=%t b=%t c=%t, want a and c only",
			contains(m, "a"), contains(m, "b"), contains(m, "c"))
	}
	// A value larger than the whole budget is returned but never stored.
	v, how, kept := m.GetOrCompute("huge", value("huge"), sized(200))
	if v != "huge" || how != Computed || kept || contains(m, "huge") {
		t.Errorf("oversized entry: v=%v how=%v kept=%t stored=%t, want computed and dropped", v, how, kept, contains(m, "huge"))
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestGetOrComputeSizesOnlyAdmitted pins the contract that makes an
// unpinned output free to compute: size runs only for ids the policy
// admits.
func TestGetOrComputeSizesOnlyAdmitted(t *testing.T) {
	cases := []struct {
		name   string
		policy CachePolicy
		id     string
		admit  bool
	}{
		{"lru", NewLRUPolicy(), "x", true},
		{"pinned", NewPinnedSetPolicy([]string{"x"}), "x", true},
		{"unpinned", NewPinnedSetPolicy([]string{"x"}), "y", false},
		{"empty pinned set", NewPinnedSetPolicy(nil), "x", false},
		{"rule non-estimator", NewRuleBasedPolicy([]string{"x"}), "y", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewCacheManager(0, c.policy)
			sizes := 0
			_, how, kept := m.GetOrCompute(c.id, func() any { return 1 }, func(any) int64 {
				sizes++
				return 1
			})
			if how != Computed || kept != c.admit {
				t.Errorf("GetOrCompute = (%v, kept=%t), want (Computed, kept=%t)", how, kept, c.admit)
			}
			if want := map[bool]int{true: 1, false: 0}[c.admit]; sizes != want {
				t.Errorf("size ran %d times, want %d", sizes, want)
			}
		})
	}
}

// TestPeekIsStatsNeutral: Peek returns a cached value with the bytes it
// was admitted at, and counts no access.
func TestPeekIsStatsNeutral(t *testing.T) {
	m := NewCacheManager(0, NewLRUPolicy())
	m.GetOrCompute("k", func() any { return "v" }, func(any) int64 { return 7 })
	before := m.Stats()
	if v, size, ok := m.Peek("k"); v != "v" || size != 7 || !ok {
		t.Errorf("Peek(k) = (%v, %d, %t), want (v, 7, true)", v, size, ok)
	}
	if v, size, ok := m.Peek("absent"); v != nil || size != 0 || ok {
		t.Errorf("Peek(absent) = (%v, %d, %t), want (nil, 0, false)", v, size, ok)
	}
	if after := m.Stats(); after != before {
		t.Errorf("Peek moved the counters: %+v -> %+v", before, after)
	}
}

// contains reports whether id is cached, counting no access.
func contains(m *CacheManager, id string) bool {
	_, _, ok := m.Peek(id)
	return ok
}
