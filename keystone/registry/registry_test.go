package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"keystoneml/keystone"
)

func openTemp(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(filepath.Join(t.TempDir(), "reg"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r
}

func TestPutGetHas(t *testing.T) {
	r := openTemp(t)
	data := []byte("artifact bytes")
	id, err := r.Put(data)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	sum := sha256.Sum256(data)
	if want := hex.EncodeToString(sum[:]); id != want {
		t.Fatalf("Put returned %s, want content address %s", id, want)
	}
	if !r.Has(id) {
		t.Fatal("Has(id) = false after Put")
	}
	got, err := r.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get returned %q", got)
	}
	// Idempotent re-put.
	id2, err := r.Put(data)
	if err != nil || id2 != id {
		t.Fatalf("second Put = (%s, %v), want (%s, nil)", id2, err, id)
	}
	if _, err := r.Get("0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
}

func TestGetDetectsCorruption(t *testing.T) {
	r := openTemp(t)
	id, err := r.Put([]byte("will be damaged"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.objectPath(id), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(id); err == nil {
		t.Fatal("Get of a tampered object must error")
	}
}

func TestTagsAndResolve(t *testing.T) {
	r := openTemp(t)
	idA, _ := r.Put([]byte("artifact A"))
	idB, _ := r.Put([]byte("artifact B"))

	if err := r.Tag("text.live", idA); err != nil {
		t.Fatalf("tag: %v", err)
	}
	if err := r.Tag("bad name!", idA); err == nil {
		t.Fatal("invalid tag name must be rejected")
	}
	if err := r.Tag("dangling", "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tagging an absent object = %v, want ErrNotFound", err)
	}

	// Resolve: by tag, by full id, by unique prefix.
	if id, err := r.Resolve("text.live"); err != nil || id != idA {
		t.Fatalf("Resolve(tag) = (%s, %v), want %s", id, err, idA)
	}
	if id, err := r.Resolve(idB); err != nil || id != idB {
		t.Fatalf("Resolve(full id) = (%s, %v), want %s", id, err, idB)
	}
	if id, err := r.Resolve(idB[:8]); err != nil || id != idB {
		t.Fatalf("Resolve(prefix) = (%s, %v), want %s", id, err, idB)
	}
	if _, err := r.Resolve("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(nonsense) = %v, want ErrNotFound", err)
	}
	if _, err := r.Resolve("ffff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(unmatched prefix) = %v, want ErrNotFound", err)
	}

	// Retag moves the pointer.
	if err := r.Tag("text.live", idB); err != nil {
		t.Fatal(err)
	}
	if id, _ := r.Resolve("text.live"); id != idB {
		t.Fatalf("retagged text.live resolves to %s, want %s", id, idB)
	}

	tags, err := r.Tags()
	if err != nil {
		t.Fatal(err)
	}
	if tags["text.live"] != idB {
		t.Fatalf("Tags() = %v", tags)
	}

	if err := r.Untag("text.live"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve("text.live"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(removed tag) = %v, want ErrNotFound", err)
	}
	if err := r.Untag("text.live"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Untag(absent) = %v, want ErrNotFound", err)
	}
}

func TestResolveAmbiguousPrefix(t *testing.T) {
	r := openTemp(t)
	// Prefix resolution reads object filenames only, so ids with a chosen
	// shared prefix can be planted directly on disk.
	id1 := "abcd" + strings.Repeat("0", 60)
	id2 := "abcd" + strings.Repeat("1", 60)
	for _, id := range []string{id1, id2} {
		if err := os.MkdirAll(filepath.Dir(r.objectPath(id)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(r.objectPath(id), []byte(id), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Resolve("abcd"); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("Resolve(shared prefix) = %v, want ErrAmbiguous", err)
	}
	if id, err := r.Resolve(id1[:5]); err != nil || id != id1 {
		t.Fatalf("Resolve(unique 5-char prefix) = (%s, %v), want %s", id, err, id1)
	}
	// Prefixes under 4 chars never resolve, unique or not.
	if _, err := r.Resolve("abc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(3-char prefix) = %v, want ErrNotFound", err)
	}
}

func TestListEntries(t *testing.T) {
	r := openTemp(t)
	idA, _ := r.Put([]byte("first object"))
	idB, _ := r.Put([]byte("second object, longer"))
	if err := r.Tag("live", idA); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag("prev", idA); err != nil {
		t.Fatal(err)
	}
	entries, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(entries))
	}
	byID := map[string]Entry{}
	for _, e := range entries {
		byID[e.ID] = e
	}
	a, b := byID[idA], byID[idB]
	if a.Size != int64(len("first object")) || b.Size != int64(len("second object, longer")) {
		t.Fatalf("sizes %d/%d wrong", a.Size, b.Size)
	}
	if len(a.Tags) != 2 || a.Tags[0] != "live" || a.Tags[1] != "prev" {
		t.Fatalf("tags on A = %v, want [live prev]", a.Tags)
	}
	if len(b.Tags) != 0 {
		t.Fatalf("tags on B = %v, want none", b.Tags)
	}
}

// TestStoreLoadFitted is the typed round-trip through the registry: a
// fitted text pipeline stored under a tag loads back and predicts
// bit-identically.
func TestStoreLoadFitted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := openTemp(t)
	train := keystone.SyntheticReviews(120, 1)
	test := keystone.SyntheticReviews(12, 2)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 300, Iterations: 4})
	f, err := p.Fit(context.Background(), train.Records, train.Labels,
		keystone.WithOptimizerLevel(keystone.LevelPipeline))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}

	id, err := Store(r, f, "text.live")
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	loaded, gotID, err := Load[string, []float64](r, "text.live")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if gotID != id {
		t.Fatalf("Load resolved %s, want %s", gotID, id)
	}
	want, err := f.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatalf("transform through loaded: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("record %d dim %d differs: %g vs %g", i, j, want[i][j], got[i][j])
			}
		}
	}

	// Type mismatch surfaces keystone's sentinel through the registry.
	if _, _, err := Load[[]float64, []float64](r, "text.live"); !errors.Is(err, keystone.ErrArtifactType) {
		t.Fatalf("Load with wrong types = %v, want ErrArtifactType", err)
	}
}
