package analyzers

import (
	"strings"
	"testing"

	"stethoscope/internal/analyzers/lintkit"
	"stethoscope/internal/analyzers/lintkit/linttest"
)

func TestCtxSelect(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxselect", CtxSelect)
}

func TestLockSend(t *testing.T) {
	linttest.Run(t, "testdata/src/locksend", LockSend)
}

func TestRawAtomic(t *testing.T) {
	linttest.Run(t, "testdata/src/rawatomic", RawAtomic)
}

func TestErrFile(t *testing.T) {
	linttest.Run(t, "testdata/src/errfile", ErrFile)
}

func TestKernelCoverage(t *testing.T) {
	linttest.Run(t, "testdata/src/kernelcoverage", KernelCoverage)
}

// TestKernelCoverageRealTree runs the opcode-contract check against the
// actual compiler/optimizer/engine packages. With suppressions applied
// the tree must be clean; without them the analyzer must resolve every
// emit site and report exactly the known intentionally-dead kernels —
// proving it understands the real registration and emission idioms
// rather than silently resolving nothing.
func TestKernelCoverageRealTree(t *testing.T) {
	fset, pkgs, err := lintkit.Load("../..", "./internal/engine", "./internal/compiler", "./internal/optimizer")
	if err != nil {
		t.Fatalf("loading real packages: %v", err)
	}

	findings, err := lintkit.RunAnalyzers(fset, pkgs, []*lintkit.Analyzer{KernelCoverage})
	if err != nil {
		t.Fatalf("running kernelcoverage: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}

	// Raw run, bypassing suppressions: the two MAL-surface kernels are
	// the complete dead set, and nothing is unresolvable or missing.
	var raw []lintkit.Diagnostic
	pass := &lintkit.ModulePass{
		Analyzer: KernelCoverage,
		Fset:     fset,
		Pkgs:     pkgs,
		Report:   func(d lintkit.Diagnostic) { raw = append(raw, d) },
	}
	if err := runKernelCoverage(pass); err != nil {
		t.Fatalf("raw kernelcoverage run: %v", err)
	}
	wantDead := map[string]bool{"language.pass": false}
	for _, d := range raw {
		matched := false
		for name := range wantDead {
			if strings.Contains(d.Message, "kernel "+name+" is registered") {
				wantDead[name] = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected raw diagnostic at %s: %s", fset.Position(d.Pos), d.Message)
		}
	}
	for name, seen := range wantDead {
		if !seen {
			t.Errorf("expected the raw run to report dead kernel %s", name)
		}
	}
}

// TestRealTreeClean runs the whole suite over the repository exactly as
// `make lint` does: the tree must be clean under its checked-in
// suppressions.
func TestRealTreeClean(t *testing.T) {
	fset, pkgs, err := lintkit.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := lintkit.RunAnalyzers(fset, pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("tree is not stethovet-clean: %s", f)
	}
}
