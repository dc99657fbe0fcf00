package simenv

import (
	"math/rand"
	"testing"

	"spear/internal/obs"
	"spear/internal/resource"
)

// batchRandomPolicy implements BatchPolicy over randomPolicy: ChooseBatch
// evaluates the rows one by one, which is exactly the per-row contract the
// interface demands.
type batchRandomPolicy struct{ randomPolicy }

func (batchRandomPolicy) NewBatchContext(maxRows int) BatchPolicyContext { return nil }

func (p batchRandomPolicy) ChooseBatch(_ BatchPolicyContext, envs []*Env, legal [][]Action, rngs []*rand.Rand, out []Action) error {
	for i := range envs {
		a, err := p.Choose(envs[i], legal[i], rngs[i])
		if err != nil {
			return err
		}
		out[i] = a
	}
	return nil
}

// ctxRandomPolicy implements ContextPolicy over randomPolicy; ChooseCtx
// counts its calls in the context, so a test can see which path ran.
type ctxRandomPolicy struct{ randomPolicy }

func (ctxRandomPolicy) NewContext() PolicyContext { return new(int) }

func (p ctxRandomPolicy) ChooseCtx(ctx PolicyContext, e *Env, legal []Action, rng *rand.Rand) (Action, error) {
	*ctx.(*int)++
	return p.Choose(e, legal, rng)
}

// TestBatchRolloutsMatchSequential pins lock-step rollouts to one-at-a-time
// rollouts for a BatchPolicy, a ContextPolicy and a plain Policy: the
// latter two are stepped row by row through RolloutContext's dispatch.
func TestBatchRolloutsMatchSequential(t *testing.T) {
	for _, p := range []Policy{batchRandomPolicy{}, ctxRandomPolicy{}, randomPolicy{}} {
		testBatchRolloutsMatchSequential(t, p)
	}
}

func testBatchRolloutsMatchSequential(t *testing.T, p Policy) {
	g := fanout(t)
	base := mustEnv(t, g, resource.Of(8, 8), Config{})
	rc := NewRolloutContext(p)
	bc := NewBatchRolloutContext(p, 4)
	for _, k := range []int{1, 3, 4, 7} {
		seeds := make([]int64, k)
		want := make([]int64, k)
		for i := range seeds {
			seeds[i] = int64(100*k + i)
			w, err := rc.RolloutFrom(base, rand.New(rand.NewSource(seeds[i])))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		got := make([]int64, k)
		if err := bc.RolloutsFrom(base, seeds, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%T k=%d episode %d: batched %d, sequential %d", p, k, i, got[i], want[i])
			}
		}
	}
	if base.Done() || base.Now() != 0 {
		t.Error("RolloutsFrom mutated the base env")
	}
}

func TestBatchRolloutsSeedLengthMismatch(t *testing.T) {
	g := fanout(t)
	base := mustEnv(t, g, resource.Of(8, 8), Config{})
	bc := NewBatchRolloutContext(batchRandomPolicy{}, 2)
	if err := bc.RolloutsFrom(base, []int64{1, 2}, make([]int64, 1)); err == nil {
		t.Fatal("mismatched makespan slice accepted")
	}
}

func TestBatchRolloutsReuseClonePoolAndCountRows(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewSimMetrics(reg)
	g := fanout(t)
	base := mustEnv(t, g, resource.Of(8, 8), Config{Metrics: m})
	bc := NewBatchRolloutContext(batchRandomPolicy{}, 3)
	seeds := []int64{1, 2, 3}
	out := make([]int64, 3)
	if err := bc.RolloutsFrom(base, seeds, out); err != nil {
		t.Fatal(err)
	}
	if m.BatchRows.Load() == 0 {
		t.Error("BatchRows not counted")
	}
	clones, reuse := m.EnvClones.Load(), m.EnvCloneReuse.Load()
	if clones != 3 || reuse != 0 {
		t.Fatalf("first batch: clones %d reuse %d, want 3/0", clones, reuse)
	}
	// The second batch recycles every lane's scratch episode.
	if err := bc.RolloutsFrom(base, seeds, out); err != nil {
		t.Fatal(err)
	}
	if got := m.EnvCloneReuse.Load(); got != 3 {
		t.Fatalf("second batch reused %d clones, want 3", got)
	}
	// Rows stepped one at a time are not batch rows.
	rows := m.BatchRows.Load()
	for _, p := range []Policy{ctxRandomPolicy{}, randomPolicy{}} {
		if err := NewBatchRolloutContext(p, 3).RolloutsFrom(base, seeds, out); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.BatchRows.Load(); got != rows {
		t.Errorf("row-by-row policies counted %d batch rows", got-rows)
	}
}

// TestBatchRolloutsUseContextPolicy checks that a ContextPolicy is stepped
// through ChooseCtx, not Choose.
func TestBatchRolloutsUseContextPolicy(t *testing.T) {
	base := mustEnv(t, fanout(t), resource.Of(8, 8), Config{})
	bc := NewBatchRolloutContext(ctxRandomPolicy{}, 2)
	if err := bc.RolloutsFrom(base, []int64{1, 2}, make([]int64, 2)); err != nil {
		t.Fatal(err)
	}
	if calls := *bc.one.pctx.(*int); calls == 0 {
		t.Error("ChooseCtx never called")
	}
}

func TestBatchRolloutsAllocFree(t *testing.T) {
	g := fanout(t)
	base := mustEnv(t, g, resource.Of(8, 8), Config{})
	for _, p := range []Policy{batchRandomPolicy{}, randomPolicy{}} {
		bc := NewBatchRolloutContext(p, 4)
		seeds := []int64{10, 11, 12, 13}
		out := make([]int64, 4)
		if err := bc.RolloutsFrom(base, seeds, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := bc.RolloutsFrom(base, seeds, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%T: RolloutsFrom allocates %.1f times per run, want 0", p, allocs)
		}
	}
}
