package simenv

import (
	"math/rand"
	"testing"

	"spear/internal/dag"
	"spear/internal/resource"
)

// playSteps advances e by n random legal steps (or until done).
func playSteps(t *testing.T, e *Env, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n && !e.Done(); i++ {
		legal := e.LegalActions()
		if len(legal) == 0 {
			t.Fatal("stuck episode")
		}
		if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
			t.Fatal(err)
		}
	}
}

// envsEqual compares the observable state of two envs.
func envsEqual(t *testing.T, a, b *Env) {
	t.Helper()
	if a.Now() != b.Now() || a.Done() != b.Done() || a.NumReady() != b.NumReady() ||
		a.NumRunning() != b.NumRunning() || a.Backlog() != b.Backlog() ||
		a.ProcessSteps() != b.ProcessSteps() {
		t.Fatalf("scalar state differs: now %d/%d ready %d/%d running %d/%d backlog %d/%d",
			a.Now(), b.Now(), a.NumReady(), b.NumReady(),
			a.NumRunning(), b.NumRunning(), a.Backlog(), b.Backlog())
	}
	ar, br := a.VisibleReady(), b.VisibleReady()
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("visible ready differ at %d: %d vs %d", i, ar[i], br[i])
		}
	}
	al, bl := a.LegalActions(), b.LegalActions()
	if len(al) != len(bl) {
		t.Fatalf("legal action counts differ: %d vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("legal actions differ at %d: %v vs %v", i, al[i], bl[i])
		}
	}
	for id := dag.TaskID(0); int(id) < a.Graph().NumTasks(); id++ {
		if a.TaskDone(id) != b.TaskDone(id) || a.TaskRunning(id) != b.TaskRunning(id) {
			t.Fatalf("task %d status differs", id)
		}
		af, aok := a.TaskFinish(id)
		bf, bok := b.TaskFinish(id)
		if af != bf || aok != bok {
			t.Fatalf("task %d finish differs: %d/%v vs %d/%v", id, af, aok, bf, bok)
		}
	}
}

func TestCloneIntoMatchesCloneAndIsIndependent(t *testing.T) {
	g := fanout(t)
	rng := rand.New(rand.NewSource(31))
	e := mustEnv(t, g, resource.Of(8, 8), Config{})
	playSteps(t, e, 2, rng)

	fresh := e.CloneInto(nil)
	envsEqual(t, e, fresh)

	// Reuse a dirty destination: an env advanced to a completely different
	// state, including one with longer internal slices.
	dirty := mustEnv(t, g, resource.Of(8, 8), Config{})
	for !dirty.Done() {
		playSteps(t, dirty, 1, rng)
	}
	reused := e.CloneInto(dirty)
	if reused != dirty {
		t.Fatal("CloneInto did not return the reused destination")
	}
	envsEqual(t, e, reused)

	// Mutating the reused clone must not leak into the source.
	before := e.LegalActions()
	playSteps(t, reused, 3, rng)
	after := e.LegalActions()
	if len(before) != len(after) {
		t.Fatal("mutating the clone changed the source's legal actions")
	}
	envsEqual(t, e, e.Clone())
}

func TestCloneIntoAcrossGraphs(t *testing.T) {
	// A destination built for a different (bigger) graph must be fully
	// retargeted, not partially overwritten.
	small := chain(t)
	big := fanout(t)
	eSmall := mustEnv(t, small, resource.Of(4), Config{})
	eBig := mustEnv(t, big, resource.Of(8, 8), Config{})
	out := eSmall.CloneInto(eBig)
	envsEqual(t, eSmall, out)
}

func TestLegalActionsIntoMatchesLegalActions(t *testing.T) {
	g := fanout(t)
	rng := rand.New(rand.NewSource(33))
	e := mustEnv(t, g, resource.Of(8, 8), Config{})
	buf := make([]Action, 0, 8)
	for !e.Done() {
		want := e.LegalActions()
		buf = e.LegalActionsInto(buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("lengths differ: %d vs %d", len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("action %d differs: %v vs %v", i, buf[i], want[i])
			}
		}
		if err := e.Step(want[rng.Intn(len(want))]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVisibleReadyIntoMatchesVisibleReady(t *testing.T) {
	g := fanout(t)
	e := mustEnv(t, g, resource.Of(8, 8), Config{Window: 2})
	if err := e.Step(0); err != nil { // schedule root
		t.Fatal(err)
	}
	if err := e.Step(Process); err != nil { // finish it; a, b, c become ready
		t.Fatal(err)
	}
	want := e.VisibleReady()
	got := e.VisibleReadyInto(make([]dag.TaskID, 0, 4))
	if len(got) != len(want) || len(got) != e.NumVisible() {
		t.Fatalf("lengths: Into %d, VisibleReady %d, NumVisible %d",
			len(got), len(want), e.NumVisible())
	}
	for i := range want {
		if got[i] != want[i] || e.VisibleTask(i) != want[i] {
			t.Fatalf("slot %d: Into %d, VisibleReady %d, VisibleTask %d",
				i, got[i], want[i], e.VisibleTask(i))
		}
	}
}

func TestStepAllocFree(t *testing.T) {
	// After warm-up, a full clone + rollout step loop must not allocate:
	// this is the per-step half of the tentpole (the policy half is gated
	// in drl). randomPolicy allocates nothing, so any count here is the
	// env's fault.
	g := fanout(t)
	base := mustEnv(t, g, resource.Of(8, 8), Config{})
	rc := NewRolloutContext(randomPolicy{})
	rng := rand.New(rand.NewSource(35))
	if _, err := rc.RolloutFrom(base, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := rc.RolloutFrom(base, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RolloutFrom allocates %.1f times per run, want 0", allocs)
	}
}
