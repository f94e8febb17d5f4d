package engine

import (
	"sync"
)

// CachePolicy decides which intermediate datasets stay in cluster memory.
// Implementations reproduce the three strategies compared in Figure 10 of
// the paper: the KeystoneML greedy pinned set, LRU (Spark's default), and
// the rule-based "cache Estimator results only" baseline. A policy is
// immutable after construction, so the manager calls it without a lock of
// its own.
type CachePolicy interface {
	// Admit reports whether id may enter the cache at all.
	Admit(id string) bool
	// Evicts reports whether an admitted entry that does not fit may
	// evict the oldest entries to make room. When false, such a Put is
	// rejected instead, so nothing admitted is ever displaced.
	Evicts() bool
}

// CacheManager stores materialized node outputs under a byte budget. It is
// the "additional cache-management layer aware of the multiple jobs that
// comprise a pipeline" described in Section 5 of the paper. A
// non-positive budget means unlimited.
//
// Recency is an intrusive doubly-linked list over the entries themselves
// with the map as index, so a Get-touch and an eviction are O(1).
type CacheManager struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*cacheEntry
	lru     entryList // oldest first
	policy  CachePolicy

	hits, misses, evictions int64
}

// cacheEntry is one cached value, threaded onto the recency list.
type cacheEntry struct {
	key        string
	value      any
	size       int64
	prev, next *cacheEntry
}

// entryList is an intrusive circular doubly-linked list with a sentinel
// root: root.next is the oldest entry, root.prev the most recent.
type entryList struct {
	root cacheEntry
}

func (l *entryList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
}

func (l *entryList) oldest() *cacheEntry {
	if l.root.next == &l.root {
		return nil
	}
	return l.root.next
}

func (l *entryList) pushNewest(e *cacheEntry) {
	e.prev = l.root.prev
	e.next = &l.root
	e.prev.next = e
	e.next.prev = e
}

func unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// NewCacheManager creates a manager with the given byte budget. A
// non-positive budget means unlimited. If policy is nil, LRU (admit
// everything, evict by recency) is used.
func NewCacheManager(budget int64, policy CachePolicy) *CacheManager {
	if policy == nil {
		policy = NewLRUPolicy()
	}
	m := &CacheManager{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		policy:  policy,
	}
	m.lru.init()
	return m
}

// Contains reports whether id is currently cached. Unlike Get it does
// not count a hit/miss or touch recency state — it is the planning peek
// the parallel scheduler uses to prune passes at cache boundaries.
func (m *CacheManager) Contains(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[id]
	return ok
}

// Get returns the cached value for id, if present.
func (m *CacheManager) Get(id string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	unlink(e)
	m.lru.pushNewest(e)
	return e.value, true
}

// Put offers a value to the cache and reports whether it is now cached.
// The policy decides admission. If the budget would be exceeded, an
// evicting policy drops the oldest entries until the value fits; a
// non-evicting one rejects the value. A value larger than the whole
// budget is rejected outright. Re-putting a cached id keeps the stored
// value.
func (m *CacheManager) Put(id string, value any, size int64) bool {
	if !m.policy.Admit(id) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[id]; ok {
		return true
	}
	if m.budget > 0 && m.used+size > m.budget {
		if size > m.budget || !m.policy.Evicts() {
			return false
		}
		for m.used+size > m.budget {
			v := m.lru.oldest() // non-nil: size fits the budget
			delete(m.entries, v.key)
			unlink(v)
			m.used -= v.size
			m.evictions++
		}
	}
	e := &cacheEntry{key: id, value: value, size: size}
	m.entries[id] = e
	m.lru.pushNewest(e)
	m.used += size
	return true
}

// Used returns the bytes currently cached.
func (m *CacheManager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Stats returns cumulative hit/miss/eviction counters.
func (m *CacheManager) Stats() (hits, misses, evictions int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.evictions
}

// PinnedSetPolicy admits exactly the node ids chosen in advance by the
// greedy materialization algorithm (Algorithm 1) and never evicts one of
// them, so the pinned outputs can never be displaced by large non-reused
// intermediates or by each other.
type PinnedSetPolicy struct {
	pinned map[string]bool
}

// NewPinnedSetPolicy pins the given ids.
func NewPinnedSetPolicy(ids []string) *PinnedSetPolicy {
	p := &PinnedSetPolicy{pinned: make(map[string]bool, len(ids))}
	for _, id := range ids {
		p.pinned[id] = true
	}
	return p
}

// Admit implements CachePolicy.
func (p *PinnedSetPolicy) Admit(id string) bool { return p.pinned[id] }

// Evicts implements CachePolicy: a pinned entry is never a victim.
func (*PinnedSetPolicy) Evicts() bool { return false }

// LRUPolicy admits everything and evicts the least recently used entries.
// It reproduces Spark's default storage behaviour, including the implicit
// admission-control quirk the paper observes (an object bigger than the
// budget is simply not admitted).
type LRUPolicy struct{}

// NewLRUPolicy returns an LRU admission policy.
func NewLRUPolicy() *LRUPolicy { return &LRUPolicy{} }

// Admit implements CachePolicy.
func (*LRUPolicy) Admit(string) bool { return true }

// Evicts implements CachePolicy.
func (*LRUPolicy) Evicts() bool { return true }

// RuleBasedPolicy admits only ids registered as Estimator outputs — the
// "sensible rule" baseline from Section 5.4 (models are cheap to hold and
// expensive to recompute), which misses reuse of featurized data.
// Admitted entries evict each other by recency.
type RuleBasedPolicy struct {
	estimator map[string]bool
}

// NewRuleBasedPolicy marks the given ids as estimator outputs.
func NewRuleBasedPolicy(estimatorIDs []string) *RuleBasedPolicy {
	p := &RuleBasedPolicy{estimator: make(map[string]bool, len(estimatorIDs))}
	for _, id := range estimatorIDs {
		p.estimator[id] = true
	}
	return p
}

// Admit implements CachePolicy.
func (p *RuleBasedPolicy) Admit(id string) bool { return p.estimator[id] }

// Evicts implements CachePolicy.
func (*RuleBasedPolicy) Evicts() bool { return true }
