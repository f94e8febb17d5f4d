package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// PrefixSignatures computes a content signature for every node of g
// whose output is a pure function of the bound source data: transform
// and gather nodes all of whose operators (their own and every upstream
// one) can be serialized by EncodeOp. The signature hashes the operator
// kind, its encoded state, and the dependency signatures, so two nodes
// in *different* graphs built from the same operator chain over the same
// source key identically — which is what lets concurrent fits of related
// pipelines share materialized prefixes through one engine.CacheManager
// (keystone.PrefixCache).
//
// Nodes that cannot be signed get no key, and neither does anything
// downstream of them: estimator outputs depend on labels and
// hyperparameters (exactly where search candidates diverge), apply-model
// nodes inherit that divergence, and ad-hoc closures have no stable
// serialized identity. Unsigned nodes simply execute privately — sharing
// degrades, never corrupts.
//
// scope is baked into every signature; callers use it to bind keys to a
// dataset identity (keystone scopes by record count and label presence,
// keystone/tune additionally uses one cache per search round), so keys
// can never collide across training subsets of different sizes.
func PrefixSignatures(g *Graph, scope string) map[int]string {
	sigs := make(map[int][]byte, len(g.Nodes)) // node ID -> raw digest
	keys := make(map[int]string)
	for _, n := range g.Topological() {
		switch n.Kind {
		case KindSource:
			sigs[n.ID] = hashFields("source", []byte(scope))
		case KindTransform:
			dep, ok := sigs[n.Deps[0].ID]
			if !ok {
				continue
			}
			kind, state, err := EncodeOp(n.Transform)
			if err != nil {
				continue // unserializable operator: no sharing downstream
			}
			d := hashFields("transform", []byte(kind), state, dep)
			sigs[n.ID] = d
			keys[n.ID] = hex.EncodeToString(d)
		case KindGather:
			fields := [][]byte{}
			ok := true
			for _, dep := range n.Deps {
				ds, found := sigs[dep.ID]
				if !found {
					ok = false
					break
				}
				fields = append(fields, ds)
			}
			if !ok {
				continue
			}
			d := hashFields("gather", fields...)
			sigs[n.ID] = d
			keys[n.ID] = hex.EncodeToString(d)
		default:
			// Labels, estimators and apply-model nodes are never shared:
			// they are where candidates differ.
		}
	}
	return keys
}

// hashFields digests a tagged sequence of length-prefixed fields, so no
// two distinct field sequences can collide by concatenation.
func hashFields(tag string, fields ...[]byte) []byte {
	h := sha256.New()
	var lenBuf [8]byte
	write := func(b []byte) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	write([]byte(tag))
	for _, f := range fields {
		write(f)
	}
	return h.Sum(nil)
}
