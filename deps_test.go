package keystoneml_test

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestDependencyRules enforces the import rules ARCHITECTURE.md states,
// over every package of the module. Only non-test imports count: they
// are what a consumer links, and test files may reach further.
//
//  1. Nothing under internal/ imports a public package, except
//     internal/experiments, which may import keystone alone.
//  2. keystone/serve and keystone/registry import no public package but
//     keystone.
//  3. keystone/tune imports only keystone and keystone/serve among public
//     packages.
//  4. examples/... import nothing from this module but keystone.
func TestDependencyRules(t *testing.T) {
	const mod, ks = "keystoneml/", "keystoneml/keystone"
	public := func(imp string) bool { return imp == ks || strings.HasPrefix(imp, ks+"/") }
	allowed := func(pkg, imp string) bool {
		switch {
		case pkg == "internal/experiments", pkg == "keystone/serve", pkg == "keystone/registry":
			return !public(imp) || imp == ks
		case strings.HasPrefix(pkg, "internal/"):
			return !public(imp)
		case pkg == "keystone/tune":
			return !public(imp) || imp == ks || imp == ks+"/serve"
		case strings.HasPrefix(pkg, "examples/"):
			return !strings.HasPrefix(imp, mod) || imp == ks
		}
		return true
	}
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		pkg := filepath.ToSlash(path)
		seen[pkg] = true
		for _, imp := range p.Imports {
			if !allowed(pkg, imp) {
				t.Errorf("%s imports %s", pkg, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"internal/core", "internal/experiments", "keystone/serve", "keystone/registry", "keystone/tune", "examples/quickstart"} {
		if !seen[pkg] {
			t.Errorf("package %s not found; the walk is not covering the module", pkg)
		}
	}
}
