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
// comprise a pipeline" described in Section 5 of the paper, and the one
// node-output cache: a fit's pinned set and keystone's cross-fit prefix
// cache (LRU, keyed by content signature) are both CacheManagers. A
// non-positive budget means unlimited.
//
// GetOrCompute is single-flight per id: concurrent demands for one id run
// one computation, the other callers blocking on its result. A
// computation that panics (estimator failure, cooperative cancellation)
// poisons nobody — its flight is discarded and the next waiter computes
// in its place.
//
// Recency is an intrusive doubly-linked list over the entries themselves
// with the map as index, so a hit's touch and an eviction are O(1).
type CacheManager struct {
	mu      sync.Mutex
	budget  int64
	entries map[string]*cacheEntry
	lru     entryList // oldest first
	flights map[string]*flight
	policy  CachePolicy
	stats   CacheStats
}

// cacheEntry is one cached value, threaded onto the recency list.
type cacheEntry struct {
	key        string
	value      any
	size       int64
	prev, next *cacheEntry
}

// flight is one in-progress GetOrCompute computation.
type flight struct {
	done chan struct{}
	val  any
	kept bool
	ok   bool // false: the computation panicked; waiters must retry
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
		flights: make(map[string]*flight),
		policy:  policy,
	}
	m.lru.init()
	return m
}

// Peek returns id's cached value and the bytes it was admitted at, if it
// is cached. It counts no access and leaves recency alone: the parallel
// scheduler peeks to prune passes at cache boundaries, and the optimizer
// to read its profile run's outputs back.
func (m *CacheManager) Peek(id string) (any, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		return e.value, e.size, true
	}
	return nil, 0, false
}

// Served says how GetOrCompute obtained its value.
type Served int

const (
	// Computed: this caller ran compute and offered the result to the
	// cache under its policy.
	Computed Served = iota
	// Hit: a stored entry.
	Hit
	// Joined: another caller's in-flight computation of the same id.
	Joined
)

// GetOrCompute returns the value for id, computing it at most once
// across concurrent callers. compute runs without the cache lock held;
// its result is offered to the cache as put does, and size measures it
// only if the policy admits id. kept reports whether the cache now holds
// the value. If compute panics, the panic propagates to this caller and
// the callers waiting on it retry.
func (m *CacheManager) GetOrCompute(id string, compute func() any, size func(any) int64) (val any, how Served, kept bool) {
	for {
		m.mu.Lock()
		if e := m.lookupLocked(id); e != nil {
			m.mu.Unlock()
			return e.value, Hit, true
		}
		f, ok := m.flights[id]
		if !ok {
			f = &flight{done: make(chan struct{})}
			m.flights[id] = f
			m.mu.Unlock()
			val = m.runFlight(id, f, compute, size)
			return val, Computed, f.kept
		}
		m.mu.Unlock()
		<-f.done
		if f.ok {
			m.mu.Lock()
			m.stats.Coalesced++
			m.mu.Unlock()
			return f.val, Joined, f.kept
		}
		// The computer panicked: race the other waiters to take over.
	}
}

// runFlight runs the computation of flight f and releases its waiters.
func (m *CacheManager) runFlight(id string, f *flight, compute func() any, size func(any) int64) any {
	defer func() {
		m.mu.Lock()
		delete(m.flights, id)
		if f.ok {
			m.stats.Computes++
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.val = compute()
	if m.policy.Admit(id) {
		f.kept = m.put(id, f.val, size(f.val))
	}
	f.ok = true
	return f.val
}

// lookupLocked returns id's entry, touching its recency, and counts the
// access as a hit or a miss. The caller holds m.mu.
func (m *CacheManager) lookupLocked(id string) *cacheEntry {
	e, ok := m.entries[id]
	if !ok {
		m.stats.Misses++
		return nil
	}
	m.stats.Hits++
	unlink(e)
	m.lru.pushNewest(e)
	return e
}

// put offers a value to the cache and reports whether it is now cached.
// The policy decides admission. If the budget would be exceeded, an
// evicting policy drops the oldest entries until the value fits; a
// non-evicting one rejects the value. A value larger than the whole
// budget is rejected outright. Re-putting a cached id keeps the stored
// value.
func (m *CacheManager) put(id string, value any, size int64) bool {
	if !m.policy.Admit(id) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[id]; ok {
		return true
	}
	st := &m.stats
	if m.budget > 0 && st.UsedBytes+size > m.budget {
		if size > m.budget || !m.policy.Evicts() {
			st.Rejected++
			return false
		}
		for st.UsedBytes+size > m.budget {
			v := m.lru.oldest() // non-nil: size fits the budget
			delete(m.entries, v.key)
			unlink(v)
			st.UsedBytes -= v.size
			st.Evictions++
		}
	}
	e := &cacheEntry{key: id, value: value, size: size}
	m.entries[id] = e
	m.lru.pushNewest(e)
	st.UsedBytes += size
	return true
}

// CacheStats are a CacheManager's cumulative counters.
type CacheStats struct {
	// Hits counts demands served from a stored entry; Misses counts
	// lookups that found none.
	Hits, Misses int64
	// Coalesced counts GetOrCompute demands that joined another caller's
	// in-flight computation; Computes counts computations that ran to
	// completion.
	Coalesced, Computes int64
	// Evictions counts entries displaced to make room; Rejected counts
	// admitted values the budget refused to store.
	Evictions, Rejected int64
	// UsedBytes is the bytes currently stored.
	UsedBytes int64
}

// Stats returns a snapshot of the manager's counters.
func (m *CacheManager) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
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
