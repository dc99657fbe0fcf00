package simenv

import (
	"fmt"
	"math/rand"
)

// BatchPolicyContext is an opaque bundle of per-goroutine batch buffers
// owned by a policy that implements BatchPolicy.
type BatchPolicyContext interface{}

// BatchPolicy is an optional Policy extension: ChooseBatch picks actions for
// several independent episodes in one evaluation — for a neural policy, one
// batched matrix-matrix network pass instead of one matrix-vector pass per
// episode. For every row the choice must equal what Choose would pick given
// the same state and rng, so batched and sequential rollouts are
// interchangeable bit for bit.
type BatchPolicy interface {
	Policy
	// NewBatchContext allocates private buffers for batches of up to maxRows
	// episodes. A context is never shared across goroutines.
	NewBatchContext(maxRows int) BatchPolicyContext
	// ChooseBatch writes one action per episode into out: out[i] is the
	// choice for envs[i] given legal[i] and rngs[i]. All slices have equal
	// length, at most the maxRows of ctx. legal rows are never empty and
	// must not be modified or retained.
	ChooseBatch(ctx BatchPolicyContext, envs []*Env, legal [][]Action, rngs []*rand.Rand, out []Action) error
}

// lane is one episode of a lock-step batch: its scratch env (recycled across
// batches — the per-worker clone pool), legal-action buffer and private rng.
//
//spear:packed
type lane struct {
	env   *Env
	legal []Action
	src   rand.Source
	rng   *rand.Rand
}

// BatchRolloutContext owns the reusable per-goroutine state of lock-step
// rollouts: a pool of per-lane scratch episodes, the policy's context and
// the gather buffers of one round. One goroutine plays k episodes
// simultaneously, advancing every live episode by one step per round;
// finished episodes drop out. A BatchPolicy decides a whole round in one
// ChooseBatch call; any other policy is stepped row by row through the same
// dispatch RolloutContext uses. It is not safe for concurrent use — give
// every worker its own.
type BatchRolloutContext struct {
	batch BatchPolicy // non-nil when the policy decides whole rounds
	bctx  BatchPolicyContext
	one   chooser // the row-by-row dispatch otherwise
	lanes []*lane

	// Gather buffers for the live rows of one lock-step round.
	envs  []*Env
	legal [][]Action
	rngs  []*rand.Rand
	out   []Action
	live  []int // lane index per gathered row
}

// NewBatchRolloutContext returns a lock-step rollout context for
// simulations played by p in rounds of up to maxRows episodes.
func NewBatchRolloutContext(p Policy, maxRows int) *BatchRolloutContext {
	if bp, ok := p.(BatchPolicy); ok {
		return &BatchRolloutContext{batch: bp, bctx: bp.NewBatchContext(max(maxRows, 1))}
	}
	return &BatchRolloutContext{one: newChooser(p)}
}

// ensureLanes grows the lane pool and the gather buffers to k rows. Growth
// allocates; once sized, RolloutsFrom reuses everything here.
//
//spear:slowpath
func (bc *BatchRolloutContext) ensureLanes(k int) {
	for len(bc.lanes) < k {
		src := rand.NewSource(0)
		bc.lanes = append(bc.lanes, &lane{src: src, rng: rand.New(src)})
	}
	if cap(bc.live) < k {
		bc.envs = make([]*Env, k)
		bc.legal = make([][]Action, k)
		bc.rngs = make([]*rand.Rand, k)
		bc.out = make([]Action, k)
		bc.live = make([]int, k)
	}
}

// errSeedSlots reports mismatched seed/makespan lengths, outside the
// //spear:noalloc step loop.
//
//spear:slowpath
func errSeedSlots(seeds, slots int) error {
	return fmt.Errorf("simenv: %d seeds but %d makespan slots", seeds, slots)
}

// RolloutsFrom plays len(seeds) episodes from base to termination, episode i
// seeded with seeds[i], and writes the resulting makespans (makespans must
// have the same length as seeds). base is not modified. Episode i's result
// is identical to RolloutFrom(base, rand.New(rand.NewSource(seeds[i]))) with
// the same policy: lock-stepping changes only how many states share one
// policy evaluation, not any episode's action sequence. The batch-rows
// counter counts only rows decided by ChooseBatch. Pool and buffer
// growth happens in ensureLanes; the live-set compaction rewrites bc.live
// in place instead of appending.
//
//spear:noalloc
func (bc *BatchRolloutContext) RolloutsFrom(base *Env, seeds []int64, makespans []int64) error {
	k := len(seeds)
	if len(makespans) != k {
		return errSeedSlots(k, len(makespans))
	}
	m := base.cfg.Metrics
	bc.ensureLanes(k)
	for i := 0; i < k; i++ {
		ln := bc.lanes[i]
		ln.env = base.CloneInto(ln.env)
		// ln.src is always a rand.NewSource rngSource, whose Seed
		// reshuffles in place without allocating.
		//spear:dyncall
		ln.src.Seed(seeds[i])
	}
	live := bc.live[:k]
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		rows := 0
		for _, i := range live {
			ln := bc.lanes[i]
			ln.legal = ln.env.LegalActionsInto(ln.legal[:0])
			if len(ln.legal) == 0 {
				return errNoLegal(ln.env)
			}
			bc.envs[rows] = ln.env
			bc.legal[rows] = ln.legal
			bc.rngs[rows] = ln.rng
			rows++
		}
		if bc.batch != nil {
			// ChooseBatch implementations write into the caller-owned out
			// slice; the batch rollout alloc gate audits them.
			//spear:dyncall
			if err := bc.batch.ChooseBatch(bc.bctx, bc.envs[:rows], bc.legal[:rows], bc.rngs[:rows], bc.out[:rows]); err != nil {
				return err
			}
			if m != nil {
				m.BatchRows.Add(int64(rows))
			}
		} else {
			for row := 0; row < rows; row++ {
				a, err := bc.one.choose(bc.envs[row], bc.legal[row], bc.rngs[row])
				if err != nil {
					return err
				}
				bc.out[row] = a
			}
		}
		// Compact the live set in place: the write index never passes the
		// read index, so overwriting while ranging is safe.
		n := 0
		for row, i := range live {
			ln := bc.lanes[i]
			if err := ln.env.Step(bc.out[row]); err != nil {
				return err
			}
			if ln.env.Done() {
				makespans[i] = ln.env.Makespan()
			} else {
				live[n] = i
				n++
			}
		}
		live = live[:n]
	}
	return nil
}
