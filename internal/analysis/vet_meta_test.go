package analysis

import (
	"go/token"
	"sync"
	"testing"
)

// The module is type-checked once per test binary and shared: loading it
// takes seconds.
var (
	moduleOnce sync.Once
	moduleFset *token.FileSet
	modulePkgs []*LoadedPackage
	moduleTest []*LoadedPackage // the packages' test builds
	moduleErr  error
)

// loadModule returns the module's packages, loaded as LoadPackages loads
// them from the module root; their test builds are kept in moduleTest.
func loadModule(t *testing.T) (*token.FileSet, []*LoadedPackage) {
	t.Helper()
	moduleOnce.Do(func() {
		moduleFset = token.NewFileSet()
		modulePkgs, moduleTest, moduleErr = load(moduleFset, "../..", true, []string{"./..."})
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return moduleFset, modulePkgs
}

// TestModuleClean runs the full analyzer suite over the real module — the
// same invocation as CI's blocking `go run ./cmd/hdltsvet ./...` step — and
// fails on any finding. This keeps the invariants enforced by plain
// `go test ./...` even where the CI configuration is not in play.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	fset, pkgs := loadModule(t)
	diags, err := Run(fset, pkgs, Suite())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or add a documented %s directive", DirectivePrefix)
	}
}
