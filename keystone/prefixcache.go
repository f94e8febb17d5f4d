package keystone

import (
	"keystoneml/internal/engine"
)

// PrefixCache is a shared cache of materialized pipeline intermediates
// keyed by content signature instead of graph identity: concurrent Fit
// calls attached to the same PrefixCache reuse each other's outputs for
// every prefix their DAGs share (same operator chain, same encoded
// operator state, same training data). It is the cross-candidate reuse
// mechanism behind keystone/tune — several hyperparameter candidates
// that differ only in their solver fit the shared featurization once —
// but it is usable directly by any caller fitting related pipelines
// over identical data.
//
// Scoping contract: every Fit sharing one PrefixCache must be given the
// *same* training records (and the same labels-or-not shape). Fit bakes
// the record count and the partition count into the signatures as a
// guard, but equal-length different datasets are on the caller; use one cache per dataset
// (keystone/tune uses one per halving round, because the training
// subset grows between rounds).
//
// Only operators with a registered codec (library ops, or closures
// registered via RegisterStatelessOp) can be signed; an unsignable
// operator simply makes its node — and everything downstream of it —
// private to its own fit. Estimators and apply-model nodes are never
// shared. A PrefixCache is safe for concurrent use.
type PrefixCache struct {
	cache *engine.CacheManager
}

// NewPrefixCache creates a shared prefix cache bounded to budget bytes
// (non-positive = unlimited, LRU eviction over shared entries).
func NewPrefixCache(budget int64) *PrefixCache {
	return &PrefixCache{cache: engine.NewCacheManager(budget, nil)}
}

// PrefixCacheStats is a snapshot of one PrefixCache's counters.
type PrefixCacheStats struct {
	// SharedHits counts node accesses served from a stored shared entry;
	// Coalesced counts accesses that joined another fit's in-flight
	// computation. Both are cross-fit reuse.
	SharedHits, Coalesced int64
	// Computes counts shared-node computations that actually ran — with
	// no eviction, exactly one per distinct prefix node across all fits.
	Computes int64
	// Rejected counts computed values the budget refused to store.
	Rejected int64
	// UsedBytes is the bytes currently held.
	UsedBytes int64
}

// Stats returns the cache's cumulative counters.
func (p *PrefixCache) Stats() PrefixCacheStats {
	s := p.cache.Stats()
	return PrefixCacheStats{
		SharedHits: s.Hits,
		Coalesced:  s.Coalesced,
		Computes:   s.Computes,
		Rejected:   s.Rejected,
		UsedBytes:  s.UsedBytes,
	}
}

// WithPrefixCache attaches a shared prefix cache to this Fit: signable
// prefix nodes consult and fill pc, so concurrent fits of pipelines
// sharing a featurization prefix over the same training data compute it
// once between them. See PrefixCache for the scoping contract.
func WithPrefixCache(pc *PrefixCache) Option {
	return func(c *fitConfig) { c.prefix = pc }
}
