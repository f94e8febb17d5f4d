package serve

import (
	"context"
	"fmt"

	"keystoneml/keystone"
)

// ArtifactStore is the artifact registry surface a route uses for
// durable version history: content-addressed put/get plus mutable tags.
// keystoneml/keystone/registry.Registry satisfies it; the interface
// keeps serve decoupled from any one on-disk layout.
type ArtifactStore interface {
	// Put stores artifact bytes and returns their content address.
	Put(data []byte) (string, error)
	// Get fetches the artifact stored under a full content address.
	Get(id string) ([]byte, error)
	// Resolve turns a tag, id, or unique id prefix into a full id.
	Resolve(ref string) (string, error)
	// Tag points name at the object ref resolves to, atomically.
	Tag(name, ref string) error
}

// WithArtifactStore binds the route to an artifact registry at Register
// time. Every version that takes traffic afterwards is encoded and
// stored under its content address, the version history records the
// artifact ids, and the tags "<route>.live" and "<route>.previous" track
// the last swap — which is what lets Rollback cross a process restart:
// a rebooted route with no in-memory history pulls "<route>.previous"
// from the store. Registration fails if the initial fitted pipeline
// cannot be encoded (see keystone.Encode).
func WithArtifactStore(store ArtifactStore) RouteOption {
	return func(c *routeConfig) { c.store = store }
}

// RegisterArtifact registers a route serving an artifact pulled from the
// store instead of a freshly trained pipeline: ref is resolved, the
// artifact decoded as a Fitted[I, O], and the route registered with the
// store bound (as WithArtifactStore) and the version history seeded with
// the artifact's id — no re-encode, so the id the route reports is
// exactly the id it was booted from.
func RegisterArtifact[I, O any](s *Server, name string, store ArtifactStore, ref string, codec Codec[I, O], opts ...RouteOption) (*Route[I, O], error) {
	if store == nil {
		return nil, fmt.Errorf("serve: RegisterArtifact on route %q with nil store", name)
	}
	fitted, id, err := loadArtifact[I, O](store, ref)
	if err != nil {
		return nil, fmt.Errorf("serve: route %q %w", name, err)
	}
	opts = append(opts, WithArtifactStore(store), withArtifactID(id))
	return Register(s, name, fitted, codec, opts...)
}

// withArtifactID seeds the initial version's artifact id (internal: the
// fitted pipeline was decoded from exactly these bytes, so re-encoding
// would only launder the id through gob nondeterminism).
func withArtifactID(id string) RouteOption {
	return func(c *routeConfig) { c.artifactID = id }
}

// DeployArtifact resolves ref in the route's bound artifact store,
// decodes it, and hot-swaps it in exactly like Deploy. It is the
// registry-backed deploy path: CI can train offline, Store the artifact,
// and flip a route to it without the serving process ever training.
func (rt *Route[I, O]) DeployArtifact(ctx context.Context, ref string) (int, error) {
	if rt.store == nil {
		return 0, fmt.Errorf("serve: route %q has no artifact store bound", rt.name)
	}
	if err := rt.begin(ctx, false); err != nil {
		return 0, err
	}
	defer rt.mu.Unlock()
	fitted, id, err := loadArtifact[I, O](rt.store, ref)
	if err != nil {
		return 0, fmt.Errorf("serve: route %q %w", rt.name, err)
	}
	return rt.deployLocked(fitted, "deploy artifact "+shortID(id), id), nil
}

// loadArtifact resolves ref in store and decodes the artifact it names,
// returning the pipeline and its full content address — the one read
// path behind RegisterArtifact, DeployArtifact and a rollback across a
// restart.
func loadArtifact[I, O any](store ArtifactStore, ref string) (*keystone.Fitted[I, O], string, error) {
	id, err := store.Resolve(ref)
	if err != nil {
		return nil, "", fmt.Errorf("artifact %q: %w", ref, err)
	}
	data, err := store.Get(id)
	if err != nil {
		return nil, "", fmt.Errorf("artifact %q: %w", ref, err)
	}
	fitted, err := keystone.Decode[I, O](data)
	if err != nil {
		return nil, "", fmt.Errorf("artifact %s: %w", shortID(id), err)
	}
	return fitted, id, nil
}

// storeFitted encodes fitted and puts it in the bound store, returning
// its artifact id ("" with no store bound).
func (rt *Route[I, O]) storeFitted(fitted *keystone.Fitted[I, O]) (string, error) {
	if rt.store == nil {
		return "", nil
	}
	data, err := keystone.Encode(fitted)
	if err != nil {
		return "", fmt.Errorf("serve: route %q: encode artifact: %w", rt.name, err)
	}
	id, err := rt.store.Put(data)
	if err != nil {
		return "", fmt.Errorf("serve: route %q: store artifact: %w", rt.name, err)
	}
	return id, nil
}

// retagLocked moves the "<route>.live" / "<route>.previous" tags after a
// traffic swap. Tag writes are best-effort pointer maintenance — the
// swap itself already happened — so failures only bump a counter that
// the stats surface exposes.
func (rt *Route[I, O]) retagLocked(liveArt, prevArt string) {
	if rt.store == nil {
		return
	}
	if liveArt != "" {
		if err := rt.store.Tag(rt.name+".live", liveArt); err != nil {
			rt.tagErrs.Add(1)
		}
	}
	if prevArt != "" {
		if err := rt.store.Tag(rt.name+".previous", prevArt); err != nil {
			rt.tagErrs.Add(1)
		}
	}
}

// shortID abbreviates a content address for notes and error messages.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
