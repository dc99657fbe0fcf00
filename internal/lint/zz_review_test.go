package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReviewCtxpollCycleMemo pins the transitive-poll fact across a
// recursive cycle (see testdata/ctxcycle): the verdict must not depend on
// the order in which the call graph's map is walked, so the analysis is
// repeated to give every iteration order a chance to show up.
func TestReviewCtxpollCycleMemo(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "ctxcycle", "gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module ctxcycle\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		diags, err := AnalyzeDirs([]string{dir}, Config{Checks: []string{checkNameCtxpoll}})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Fatalf("iteration %d: loop calling b (which reaches ctx.Err via a->c) flagged: %v", i, diags)
		}
	}
}
