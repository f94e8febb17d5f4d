package engine

import "testing"

func TestCacheManagerBasicPutGet(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	if !m.Put("a", "valueA", 40) {
		t.Fatal("Put a rejected")
	}
	v, ok := m.Get("a")
	if !ok || v.(string) != "valueA" {
		t.Fatalf("Get a = %v, %v", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Error("Get missing returned ok")
	}
	hits, misses, _ := m.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheManagerLRUEviction(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	m.Put("a", 1, 40)
	m.Put("b", 2, 40)
	m.Get("a") // a is now most recently used
	m.Put("c", 3, 40)
	// b should have been evicted (LRU), a and c remain.
	if _, ok := m.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := m.Get("a"); !ok {
		t.Error("a should still be cached")
	}
	if _, ok := m.Get("c"); !ok {
		t.Error("c should be cached")
	}
	if _, _, ev := m.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCacheManagerAdmissionControl(t *testing.T) {
	// An object larger than the entire budget must be rejected outright
	// (this is the Spark admission-control behaviour the paper describes).
	m := NewCacheManager(100, NewLRUPolicy())
	m.Put("small", 1, 30)
	if m.Put("huge", 2, 500) {
		t.Error("object larger than budget admitted")
	}
	if _, ok := m.Get("small"); !ok {
		t.Error("small entry was evicted by rejected huge entry")
	}
}

func TestCacheManagerUnlimitedBudget(t *testing.T) {
	m := NewCacheManager(0, NewLRUPolicy())
	for i := 0; i < 100; i++ {
		if !m.Put(string(rune('a'+i%26))+string(rune('0'+i/26)), i, 1<<30) {
			t.Fatal("unlimited cache rejected a put")
		}
	}
	if m.Used() != 100<<30 {
		t.Errorf("Used = %d", m.Used())
	}
}

func TestPinnedSetPolicy(t *testing.T) {
	m := NewCacheManager(1000, NewPinnedSetPolicy([]string{"keep"}))
	if m.Put("other", 1, 10) {
		t.Error("non-pinned id admitted")
	}
	if !m.Put("keep", 2, 10) {
		t.Error("pinned id rejected")
	}
	if v, ok := m.Get("keep"); !ok || v.(int) != 2 {
		t.Error("pinned value not retrievable")
	}
}

func TestRuleBasedPolicy(t *testing.T) {
	m := NewCacheManager(1000, NewRuleBasedPolicy([]string{"est1", "est2"}))
	if m.Put("features", 1, 10) {
		t.Error("non-estimator output admitted by rule-based policy")
	}
	if !m.Put("est1", 1, 10) {
		t.Error("estimator output rejected")
	}
}

func TestCacheManagerPinnedNeverEvictedForNewer(t *testing.T) {
	// Under budget pressure a pinned entry must never be the victim that
	// admits a newer entry: the newcomer is rejected instead.
	m := NewCacheManager(100, NewPinnedSetPolicy([]string{"a", "b"}))
	if !m.Put("a", 1, 60) {
		t.Fatal("first pinned entry rejected")
	}
	if m.Put("b", 2, 60) {
		t.Error("second pinned entry admitted by evicting the first pinned entry")
	}
	if _, ok := m.Get("a"); !ok {
		t.Error("pinned entry a was evicted")
	}
	if m.Used() != 60 {
		t.Errorf("Used = %d, want 60", m.Used())
	}
	if _, _, ev := m.Stats(); ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

func TestCacheManagerDoublePut(t *testing.T) {
	m := NewCacheManager(100, NewLRUPolicy())
	m.Put("a", 1, 10)
	if !m.Put("a", 2, 10) {
		t.Error("re-put of cached id should report success")
	}
	if m.Used() != 10 {
		t.Errorf("double put double-counted: Used = %d", m.Used())
	}
	// Original value retained.
	if v, _ := m.Get("a"); v.(int) != 1 {
		t.Errorf("value overwritten: %v", v)
	}
}
