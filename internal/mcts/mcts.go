// Package mcts implements the improved Monte Carlo Tree Search of paper
// §III-C: UCB selection with max-value exploitation and mean tiebreak
// (Eq. 5), a makespan-scaled exploration constant, per-decision budget decay
// max(b_initial/depth, b_min) (Eq. 4), the expansion filters that prune
// superficial actions, and pluggable expansion/rollout policies so that the
// DRL agent can replace the classic random policy (which is how Spear is
// assembled in internal/core). The search keeps one tree per Schedule call,
// reused across decisions. TreeParallelism parallelizes it: J workers
// descend the shared, arena-allocated tree with atomic statistics, virtual
// loss to de-correlate their descents, and per-node expansion latches; an
// optional transposition table keyed by the env's canonical state hash lets
// states reached via different schedule orders pool statistics.
package mcts

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// Expander chooses which untried action to expand next. Classic MCTS picks
// uniformly at random; Spear substitutes the trained policy network, which
// "effectively sorts the actions by how promising they are" (§III-C).
type Expander interface {
	// Name returns a short label for logging and ablation output.
	Name() string
	// Next returns the index into untried of the action to expand. untried
	// is never empty and must not be modified or retained.
	Next(e *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error)
}

// RandomExpander is the classic uniformly-random expansion strategy.
type RandomExpander struct{}

var _ Expander = RandomExpander{}

// Name implements Expander.
func (RandomExpander) Name() string { return "random" }

// Next implements Expander.
func (RandomExpander) Next(_ *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error) {
	if rng == nil {
		return 0, errors.New("mcts: random expander requires an rng")
	}
	return rng.Intn(len(untried)), nil
}

// Config parameterizes the search. The zero value is completed with the
// paper's defaults by normalize.
type Config struct {
	// InitialBudget is b_initial of Eq. 4: the iteration budget for the
	// first scheduling decision. Default 1000 (§V-A).
	InitialBudget int
	// MinBudget is b_min of Eq. 4: the floor of the decayed budget.
	// Default 100 (§V-B1).
	MinBudget int
	// ExplorationScale multiplies the greedy-packing makespan estimate to
	// form the UCB exploration constant c (§IV: "we scale it by an estimate
	// of the makespan produced by ... a greedy packing algorithm").
	// Default 0.1.
	ExplorationScale float64
	// Rollout simulates from expanded nodes to termination. Default: the
	// uniformly random policy of classic MCTS. When the policy also
	// implements simenv.BatchPolicy, the lock-stepped simulations of
	// RolloutsPerExpansion > 1 share batched policy evaluations (same
	// results as per-episode rollouts, fewer network passes).
	Rollout simenv.Policy
	// Expand orders unexplored actions during expansion. Default: uniform
	// random. With TreeParallelism > 1 every search worker shares this
	// value, so it must be safe for concurrent use — stateful expanders
	// should set NewExpander instead.
	Expand Expander
	// NewExpander, when non-nil, builds one private Expander per search
	// worker and takes precedence over Expand. Required for expanders that
	// carry per-search state (like the DRL expander's inference buffers)
	// when TreeParallelism > 1.
	NewExpander func() Expander
	// Window caps the visible ready tasks (0 = unlimited). Spear sets it to
	// the neural network's input window.
	Window int
	// Seed feeds the search's private random source. Search worker j
	// derives its own seed from Seed and j, so every worker explores
	// differently while the whole search stays deterministic at
	// TreeParallelism = 1.
	Seed int64
	// DisableBudgetDecay spends the full InitialBudget at every decision
	// instead of Eq. 4's max(b_initial/depth, b_min) decay — the ablation
	// arm for the paper's budget-decay design choice.
	DisableBudgetDecay bool
	// RolloutsPerExpansion runs this many simulations from each expanded
	// node instead of one. They run lock-stepped on the search worker's own
	// goroutine, one step of every live episode per round: a BatchPolicy
	// decides each round in one batched evaluation, any other policy one
	// episode at a time. Each simulation's value is backpropagated.
	// Default 1.
	RolloutsPerExpansion int
	// TreeParallelism runs this many workers inside the search tree (tree
	// parallelization): the workers descend one shared arena-allocated tree
	// with atomic statistics, mark their descent paths with virtual losses
	// (reverted on backup) so selection de-correlates, and never
	// double-expand thanks to per-node latches. Default 1, which is
	// bit-identical to the serial search (no virtual loss is applied). With
	// J > 1 the iteration interleaving is scheduler-dependent, so results
	// are valid but not run-to-run deterministic.
	TreeParallelism int
	// UseTranspositions keys every created node's statistics block by the
	// environment's canonical state hash, so states reached via different
	// schedule orders share one statistics entry within a Schedule call.
	// The table holds at most 64×InitialBudget entries (see transTable).
	// Changes search statistics (strictly more informed backups), so it is
	// off by default to preserve the classic per-node search.
	UseTranspositions bool
	// Obs, when non-nil, is the registry the scheduler's metrics are
	// registered in, so several schedulers can share (and aggregate into)
	// one exposition endpoint. Nil means a private registry; either way
	// the counters are pre-allocated at construction and updated with
	// single lock-free atomic operations.
	Obs *obs.Registry
}

func (c Config) normalized() Config {
	if c.InitialBudget <= 0 {
		c.InitialBudget = 1000
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 100
	}
	if c.MinBudget > c.InitialBudget {
		c.MinBudget = c.InitialBudget
	}
	if c.ExplorationScale <= 0 {
		c.ExplorationScale = 0.1
	}
	if c.Rollout == nil {
		c.Rollout = baselines.Random{}
	}
	if c.Expand == nil {
		c.Expand = RandomExpander{}
	}
	if c.RolloutsPerExpansion <= 0 {
		c.RolloutsPerExpansion = 1
	}
	if c.TreeParallelism <= 0 {
		c.TreeParallelism = 1
	}
	return c
}

// minElapsedSeconds floors the elapsed time used for the SimsPerSec rate:
// trivial jobs on coarse clocks can report zero or near-zero elapsed, which
// would turn the rate into Inf or nonsense.
const minElapsedSeconds = 1e-6

// Stats reports what one Schedule call did, for tests and benchmarks.
type Stats struct {
	// Decisions is the number of committed scheduling decisions.
	Decisions int
	// Iterations is the number of search iterations run, summed across all
	// search workers.
	Iterations int
	// Expansions is the number of nodes added to the search tree.
	Expansions int
	// Rollouts is the number of simulations played to termination.
	Rollouts int64
	// ForcedMoves counts decisions with exactly one legal action, committed
	// without searching.
	ForcedMoves int
	// MaxDepth is the deepest tree position reached, measured from the
	// first decision (committed decisions plus selection descent).
	MaxDepth int
	// TreeWorkers is the number of shared-tree workers.
	TreeWorkers int
	// VirtualLossApplied counts virtual-loss marks applied on shared-tree
	// descent paths (only possible with TreeWorkers > 1; every mark is
	// reverted on backup).
	VirtualLossApplied int64
	// TTHits and TTMisses count transposition-table lookups at node
	// creation that found, respectively missed, an existing statistics
	// block (only possible with UseTranspositions).
	TTHits   int64
	TTMisses int64
	// TTEvictions counts transposition-table entries dropped by capacity
	// flushes (only possible with UseTranspositions).
	TTEvictions int64
	// Elapsed is the wall-clock time of the Schedule call.
	Elapsed time.Duration
	// SimsPerSec is Rollouts divided by Elapsed (floored at 1µs, so the
	// rate stays finite on trivially fast calls).
	SimsPerSec float64
	// Cancelled reports whether the call was cut short by its context.
	Cancelled bool
}

// Scheduler runs MCTS to schedule whole jobs. It implements
// sched.Scheduler. A Scheduler is not safe for concurrent Schedule calls:
// besides the stats counters it owns the node arena, per-worker rollout
// contexts and simulation buffers that are reused across iterations.
type Scheduler struct {
	name  string
	cfg   Config
	stats Stats

	// reg holds the scheduler's cumulative metrics; sm and sim are the
	// pre-allocated counter bundles updated on the search and rollout hot
	// paths (lock-free atomics, shared with every env clone and every
	// search worker).
	reg *obs.Registry
	sm  *obs.SearchMetrics
	sim *obs.SimMetrics

	// tree is the search tree and its workers. It persists across Schedule
	// calls — its arena, expanders, rollout contexts and simulation buffers
	// are reusable — and only the nodes and rngs are reset per call.
	tree *treeWorker
	// ttCap bounds the transposition table: 64×InitialBudget entries,
	// comfortably above what one decision's expansions can insert while
	// still capping a long episode's growth.
	ttCap int
}

var _ sched.ContextScheduler = (*Scheduler)(nil)

// New returns an MCTS scheduler with the given configuration.
func New(cfg Config) *Scheduler { return NewNamed("MCTS", cfg) }

// NewNamed is New with a custom display name (used by Spear).
func NewNamed(name string, cfg Config) *Scheduler {
	cfg = cfg.normalized()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		name:  name,
		cfg:   cfg,
		reg:   reg,
		sm:    obs.NewSearchMetrics(reg),
		sim:   obs.NewSimMetrics(reg),
		ttCap: 64 * cfg.InitialBudget,
	}
	s.tree = s.newTree()
	return s
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// LastStats returns counters from the most recent Schedule call.
func (s *Scheduler) LastStats() Stats { return s.stats }

// Metrics renders the scheduler's cumulative metrics (search, simulator and
// cluster counters, accumulated across every Schedule call).
func (s *Scheduler) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// workerSeed derives shared-tree worker j's rng seed from the configured
// seed: a fixed odd multiplier (the 64-bit golden ratio) spreads consecutive
// worker indices across the seed space. Worker 0 keeps the configured seed,
// so TreeParallelism = 1 reproduces the serial search exactly.
func workerSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	return seed + int64(uint64(j)*0x9E3779B97F4A7C15)
}

// treeWorker is the search tree: the arena holding its nodes and
// statistics, the transposition table (when enabled), and the J shared-tree
// simWorkers that descend it.
type treeWorker struct {
	// The raw atomic counters lead the struct so they are 64-bit aligned
	// even on 32-bit hosts (Go only guarantees 64-bit alignment of an
	// allocation's first word; spear-vet's align64 check enforces the
	// ordering). remaining is the shared-tree iteration ticket counter of
	// the current search phase (TreeParallelism > 1 only): workers draw
	// tickets until the phase budget is spent, so the Eq. 4 budget is
	// conserved exactly. ttHits/ttMisses accumulate transposition lookups
	// per Schedule call (atomically — lookups happen inside concurrent
	// expansions). The cold fields s/sims/root sit between the counters
	// and the arena so the arena header (mutex + chunk-table pointer, read
	// by every node access) starts a fresh cache line: ticket decrements
	// must not invalidate the line the table pointer lives on.
	remaining int64 //spear:atomic
	ttHits    int64 //spear:atomic
	ttMisses  int64 //spear:atomic

	s     *Scheduler
	sims  []*simWorker
	root  int32
	arena nodeArena
	tt    transTable
}

// simWorker is one shared-tree search worker and everything it owns: a
// private rng and expander, its rollout context and simulation buffers, and
// the per-search-phase stat deltas that the scheduler aggregates after
// every decision.
type simWorker struct {
	tw     *treeWorker
	rng    *rand.Rand
	expand Expander

	// rctx plays the single simulation of RolloutsPerExpansion = 1; brc
	// lock-steps the simulations of RolloutsPerExpansion > 1. Exactly one
	// is non-nil, and it persists across Schedule calls.
	rctx *simenv.RolloutContext
	brc  *simenv.BatchRolloutContext

	// simulate's reusable result/seed/makespan buffers.
	simValues []float64
	simSeeds  []int64
	simSpans  []int64

	// Per-search-phase stat deltas and error, reset by resetPhase and
	// aggregated by Scheduler.collect once the phase's goroutines joined.
	iterations int
	expansions int
	rollouts   int64
	maxDepth   int
	vloss      int64
	err        error
}

// newTree builds the search tree with its TreeParallelism simWorkers.
func (s *Scheduler) newTree() *treeWorker {
	tw := &treeWorker{s: s}
	for j := 0; j < s.cfg.TreeParallelism; j++ {
		sw := &simWorker{tw: tw}
		if s.cfg.NewExpander != nil {
			sw.expand = s.cfg.NewExpander()
		} else {
			sw.expand = s.cfg.Expand
		}
		if k := s.cfg.RolloutsPerExpansion; k > 1 {
			sw.brc = simenv.NewBatchRolloutContext(s.cfg.Rollout, k)
		} else {
			sw.rctx = simenv.NewRolloutContext(s.cfg.Rollout)
		}
		tw.sims = append(tw.sims, sw)
	}
	return tw
}

func (tw *treeWorker) resetPhase() {
	for _, sw := range tw.sims {
		sw.iterations, sw.expansions, sw.rollouts, sw.maxDepth, sw.vloss, sw.err = 0, 0, 0, 0, 0, nil
	}
}

// collect folds the tree's search-phase deltas into the call stats and
// returns the first worker error.
func (s *Scheduler) collect(tw *treeWorker) error {
	var err error
	for _, sw := range tw.sims {
		s.stats.Iterations += sw.iterations
		s.stats.Expansions += sw.expansions
		s.stats.Rollouts += sw.rollouts
		s.stats.VirtualLossApplied += sw.vloss
		if sw.maxDepth > s.stats.MaxDepth {
			s.stats.MaxDepth = sw.maxDepth
		}
		if err == nil {
			err = sw.err
		}
	}
	return err
}

// Schedule implements sched.Scheduler. It is ScheduleContext with an
// uncancellable background context.
func (s *Scheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), g, spec)
}

// ScheduleContext implements sched.ContextScheduler. The context is checked
// at every decision and search-iteration boundary; on cancellation the
// search stops within one iteration, the partially committed episode is
// completed with the rollout policy, and the resulting incumbent schedule
// is returned together with an error wrapping ctx.Err(). The clock feeds
// Stats.Elapsed/SimsPerSec and the SearchTime timer only; the search
// itself is driven by the seeded worker rngs.
//
//spear:timing
func (s *Scheduler) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	began := time.Now()
	tw := s.tree
	s.stats = Stats{TreeWorkers: s.cfg.TreeParallelism}
	defer func() {
		s.stats.TTHits = atomic.LoadInt64(&tw.ttHits)
		s.stats.TTMisses = atomic.LoadInt64(&tw.ttMisses)
		s.stats.TTEvictions = atomic.LoadInt64(&tw.tt.evictions)
		s.sm.TTEvictions.Add(s.stats.TTEvictions)
		s.stats.Elapsed = time.Since(began)
		secs := s.stats.Elapsed.Seconds()
		if secs < minElapsedSeconds {
			secs = minElapsedSeconds
		}
		s.stats.SimsPerSec = float64(s.stats.Rollouts) / secs
		s.sm.SearchTime.Observe(s.stats.Elapsed)
		s.sm.TreeDepth.Set(int64(s.stats.MaxDepth))
		s.sm.TreeWorkers.Set(int64(s.cfg.TreeParallelism))
	}()

	env, err := simenv.NewCluster(g, spec, simenv.Config{Window: s.cfg.Window, Mode: simenv.NextCompletion, Metrics: s.sim})
	if err != nil {
		return nil, fmt.Errorf("mcts: %w", err)
	}

	c, err := s.explorationConstant(g, spec)
	if err != nil {
		return nil, err
	}

	// Reset the tree for this call. The arena keeps its chunk storage and
	// per-slot buffers from earlier calls, so warm calls rebuild the tree
	// without allocating.
	tw.arena.reset()
	if s.cfg.UseTranspositions {
		tw.tt.reset(s.ttCap)
	}
	atomic.StoreInt64(&tw.ttHits, 0)
	atomic.StoreInt64(&tw.ttMisses, 0)
	for j, sw := range tw.sims { //spear:nopoll(bounded rng reseed over the sim workers)
		sw.rng = rand.New(rand.NewSource(workerSeed(s.cfg.Seed, j)))
	}
	tw.root = tw.newNode(env, nilNode, 0)
	rng := tw.sims[0].rng

	depth := 0
	for !tw.arena.node(tw.root).env.Done() {
		if ctx.Err() != nil {
			return s.finishCancelled(ctx, tw.arena.node(tw.root).env, rng, began)
		}
		depth++
		s.stats.Decisions++
		s.sm.Decisions.Inc()
		if depth > s.stats.MaxDepth {
			s.stats.MaxDepth = depth
		}

		legal := tw.arena.node(tw.root).env.LegalActions()
		if len(legal) == 0 {
			return nil, fmt.Errorf("mcts: no legal actions at decision %d", depth)
		}
		var chosen simenv.Action
		if len(legal) == 1 {
			// Forced move: skip the search entirely.
			chosen = legal[0]
			s.stats.ForcedMoves++
			s.sm.ForcedMoves.Inc()
		} else {
			budget := s.cfg.InitialBudget
			if !s.cfg.DisableBudgetDecay {
				budget = s.cfg.InitialBudget / depth
				if budget < s.cfg.MinBudget {
					budget = s.cfg.MinBudget
				}
			}
			if err := s.searchPhase(ctx, budget, depth, c); err != nil {
				return nil, err
			}
			next := tw.bestRootChild()
			if next == nilNode {
				// Cancelled before the first expansion of this decision.
				return s.finishCancelled(ctx, tw.arena.node(tw.root).env, rng, began)
			}
			chosen = tw.arena.node(next).action
		}
		// Commit the move: the chosen child becomes the new root (created on
		// the spot for a forced move — bookkeeping, not an expansion), and
		// the rest of the old tree goes back to the arena freelist for the
		// next decision to reuse.
		if err := tw.commit(chosen); err != nil {
			return nil, err
		}
	}

	out, err := tw.arena.node(tw.root).env.Schedule(s.name)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(began)
	return out, nil
}

// bestRootChild returns the root child with the best committed-move
// statistics (max value, mean tiebreak), scanning the sibling chain in
// creation order; nilNode when the root has no children.
func (tw *treeWorker) bestRootChild() int32 {
	ar := &tw.arena
	best := atomic.LoadInt32(&ar.node(tw.root).first)
	if best == nilNode {
		return nilNode
	}
	bestStat := snapStats(ar.nstats(ar.node(best).stats))
	for ch := atomic.LoadInt32(&ar.node(best).next); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if st := snapStats(ar.nstats(ar.node(ch).stats)); st.better(bestStat) {
			best, bestStat = ch, st
		}
	}
	return best
}

// commit makes the chosen action's child the tree's new root, keeping its
// subtree and statistics, and recycles every other node of the old tree.
func (tw *treeWorker) commit(chosen simenv.Action) error {
	ar := &tw.arena
	next, err := tw.commitChild(chosen)
	if err != nil {
		return err
	}
	oldRoot := tw.root
	for ch := atomic.LoadInt32(&ar.node(oldRoot).first); ch != nilNode; {
		nx := atomic.LoadInt32(&ar.node(ch).next)
		if ch != next {
			ar.releaseSubtree(ch)
		}
		ch = nx
	}
	ar.release(oldRoot)
	ar.node(next).parent = nilNode
	tw.root = next
	return nil
}

// commitChild returns the root's child for the committed action, creating
// it as a bookkeeping node (not an expansion) when the search never tried
// the action (a forced move). Runs between search phases, single-threaded.
func (tw *treeWorker) commitChild(a simenv.Action) (int32, error) {
	ar := &tw.arena
	root := ar.node(tw.root)
	for ch := atomic.LoadInt32(&root.first); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if ar.node(ch).action == a {
			return ch, nil
		}
	}
	// Drop a from untried if present.
	for i, u := range root.untried {
		if u == a {
			root.untried = root.untried[:i+copy(root.untried[i:], root.untried[i+1:])]
			atomic.StoreInt32(&root.nuntried, int32(len(root.untried)))
			break
		}
	}
	return tw.newChild(tw.root, a)
}

// newNode builds a node around an existing env (the root of the tree) in a
// fresh arena slot.
func (tw *treeWorker) newNode(env *simenv.Env, parent int32, action simenv.Action) int32 {
	ar := &tw.arena
	idx := ar.alloc(tw.s.cfg.UseTranspositions)
	n := ar.node(idx)
	n.env = env
	n.action = action
	n.parent = parent
	n.untried = env.LegalActionsInto(n.untried[:0])
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	if tw.s.cfg.UseTranspositions {
		sidx, hit := tw.tt.lookupOrCreate(env.StateHash(), ar)
		n.stats = sidx
		tw.countTT(hit)
	}
	return idx
}

// newChild creates the child of parent reached by action — cloning the
// parent's env into the slot's recycled env, stepping it, and linking the
// node at the tail of the parent's sibling chain (creation order, which
// selection and the committed-move choice use as tiebreak order). Callers
// must hold the parent's expansion latch or be the only goroutine touching
// the tree. The action must already be removed from the parent's untried
// list.
func (tw *treeWorker) newChild(pIdx int32, action simenv.Action) (int32, error) {
	ar := &tw.arena
	idx := ar.alloc(tw.s.cfg.UseTranspositions)
	n := ar.node(idx)
	env := ar.node(pIdx).env.CloneInto(n.env)
	if err := env.Step(action); err != nil {
		// Cannot happen for actions drawn from LegalActions; keep the slot
		// leaked rather than racing a release against concurrent allocs.
		return nilNode, err
	}
	n.env = env
	n.action = action
	n.parent = pIdx
	n.untried = env.LegalActionsInto(n.untried[:0])
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	if tw.s.cfg.UseTranspositions {
		sidx, hit := tw.tt.lookupOrCreate(env.StateHash(), ar)
		n.stats = sidx
		tw.countTT(hit)
	}
	// Publish: the alloc above republished the chunk table before idx could
	// reach anyone, so linking the node is the only release needed.
	p := ar.node(pIdx)
	if last := p.last; last != nilNode {
		atomic.StoreInt32(&ar.node(last).next, idx)
	} else {
		atomic.StoreInt32(&p.first, idx)
	}
	p.last = idx
	return idx, nil
}

// countTT tallies one transposition lookup into the per-call counters and
// the metric bundle.
func (tw *treeWorker) countTT(hit bool) {
	if hit {
		atomic.AddInt64(&tw.ttHits, 1)
		tw.s.sm.TTHits.Inc()
	} else {
		atomic.AddInt64(&tw.ttMisses, 1)
		tw.s.sm.TTMisses.Inc()
	}
}

// searchPhase runs one decision's search. With one worker the search runs
// inline; with J > 1 each shared-tree worker runs in its own goroutine,
// drawing iteration tickets from an atomic counter until the budget is
// spent, so the Eq. 4 budget is conserved exactly. The workers share only
// the arena, the latches and the atomic statistics.
func (s *Scheduler) searchPhase(ctx context.Context, budget, rootDepth int, c float64) error {
	tw := s.tree
	tw.resetPhase()
	if s.cfg.TreeParallelism == 1 {
		sw := tw.sims[0]
		sw.err = sw.searchSerial(ctx, budget, rootDepth, c)
		return s.collect(tw)
	}
	atomic.StoreInt64(&tw.remaining, int64(budget))
	var wg sync.WaitGroup
	for _, sw := range tw.sims {
		wg.Add(1)
		go func(sw *simWorker) {
			defer wg.Done()
			sw.err = sw.searchShared(ctx, rootDepth, c)
		}(sw)
	}
	wg.Wait()
	return s.collect(tw)
}

// searchSerial runs exactly budget iterations — the deterministic path for
// TreeParallelism = 1, inline on the Schedule goroutine and bit-identical
// to the classic single-tree search.
// ctx is checked once per iteration; on cancellation the search stops
// early and returns nil, leaving whatever tree was built for the caller to
// harvest.
func (sw *simWorker) searchSerial(ctx context.Context, budget, rootDepth int, c float64) error {
	for iter := 0; iter < budget; iter++ {
		if ctx.Err() != nil {
			return nil
		}
		if err := sw.iterate(rootDepth, c); err != nil {
			return err
		}
	}
	return nil
}

// searchShared draws iteration tickets from the tree's shared budget until
// the phase is spent — the TreeParallelism > 1 path, where J workers run
// this concurrently against one tree.
func (sw *simWorker) searchShared(ctx context.Context, rootDepth int, c float64) error {
	tw := sw.tw
	for atomic.AddInt64(&tw.remaining, -1) >= 0 {
		if ctx.Err() != nil {
			return nil
		}
		if err := sw.iterate(rootDepth, c); err != nil {
			return err
		}
	}
	return nil
}

// iterate runs one search iteration: selection through fully expanded
// nodes, expansion under the node's latch, simulation and backup. With
// TreeParallelism > 1 every node entered on the way down is marked with a
// virtual loss (reverted by backup), and a worker that loses an expansion
// latch race simulates the contended node as-is instead of blocking.
func (sw *simWorker) iterate(rootDepth int, c float64) error {
	tw := sw.tw
	ar := &tw.arena
	s := tw.s
	vlossOn := s.cfg.TreeParallelism > 1
	sw.iterations++
	s.sm.Iterations.Inc()

	nIdx := tw.root
	n := ar.node(nIdx)
	depth := rootDepth
	for !n.env.Done() {
		if atomic.LoadInt32(&n.nuntried) > 0 {
			if !atomic.CompareAndSwapInt32(&n.latch, 0, 1) {
				// Another worker is expanding this node right now; simulate
				// the node as-is rather than wait or double-expand.
				break
			}
			if len(n.untried) == 0 {
				// Raced: the node became fully expanded while we approached.
				atomic.StoreInt32(&n.latch, 0)
				continue
			}
			child, err := sw.expandAt(nIdx, n)
			atomic.StoreInt32(&n.latch, 0)
			if err != nil {
				return err
			}
			sw.expansions++
			s.sm.Expansions.Inc()
			nIdx, n = child, ar.node(child)
			depth++
			if vlossOn {
				sw.applyVloss(n)
			}
			break
		}
		// Selection: descend to the UCB-best child.
		first := atomic.LoadInt32(&n.first)
		if first == nilNode {
			break
		}
		next := tw.selectChild(n, first, c)
		nIdx, n = next, ar.node(next)
		depth++
		if vlossOn {
			sw.applyVloss(n)
		}
	}
	if depth > sw.maxDepth {
		sw.maxDepth = depth
	}
	// Simulation: roll out to termination with the configured policy
	// (lock-stepped when RolloutsPerExpansion > 1).
	values, err := sw.simulate(n, sw.rng)
	if err != nil {
		return err
	}
	if !n.env.Done() {
		k := int64(len(values))
		sw.rollouts += k
		s.sm.Rollouts.Add(k)
	}
	tw.backup(nIdx, values, vlossOn)
	return nil
}

// expandAt picks one untried action of n with the expander, removes it from
// the untried list and creates the child. Callers hold n's expansion latch.
func (sw *simWorker) expandAt(nIdx int32, n *anode) (int32, error) {
	idx, err := sw.expand.Next(n.env, n.untried, sw.rng)
	if err != nil {
		return nilNode, fmt.Errorf("mcts: expander %s: %w", sw.expand.Name(), err)
	}
	if idx < 0 || idx >= len(n.untried) {
		return nilNode, fmt.Errorf("mcts: expander %s returned index %d of %d", sw.expand.Name(), idx, len(n.untried))
	}
	action := n.untried[idx]
	n.untried = n.untried[:idx+copy(n.untried[idx:], n.untried[idx+1:])]
	atomic.StoreInt32(&n.nuntried, int32(len(n.untried)))
	return sw.tw.newChild(nIdx, action)
}

// applyVloss marks one descent step with a virtual loss, discouraging the
// other shared-tree workers from piling onto the same path until the
// backup reverts the mark.
//
//spear:noalloc
func (sw *simWorker) applyVloss(n *anode) {
	st := sw.tw.arena.nstats(n.stats)
	atomic.AddInt64(&st.vloss, 1)
	sw.vloss++
	sw.tw.s.sm.VirtualLoss.Inc()
}

// selectChild returns the UCB-best child of n, scanning the sibling chain
// in creation order (strict > keeps the first-created child on ties, the
// classic tiebreak). first is n's already-loaded first child.
//
//spear:noalloc
func (tw *treeWorker) selectChild(n *anode, first int32, c float64) int32 {
	ar := &tw.arena
	pst := ar.nstats(n.stats)
	parentEff := atomic.LoadInt64(&pst.visits) + atomic.LoadInt64(&pst.vloss)
	best := first
	bestScore := ucbScore(ar.nstats(ar.node(first).stats), c, parentEff)
	for ch := atomic.LoadInt32(&ar.node(first).next); ch != nilNode; ch = atomic.LoadInt32(&ar.node(ch).next) {
		if score := ucbScore(ar.nstats(ar.node(ch).stats), c, parentEff); score > bestScore {
			best, bestScore = ch, score
		}
	}
	return best
}

// backup folds the simulation values into every node from nIdx up to the
// root: visits and sums via atomic adds (unit-scale fixed point is exact —
// values are negated integer makespans), max via a CAS loop, and, with
// virtual losses on, one mark reverted per node entered on the descent
// (every path node except the root).
//
//spear:noalloc
func (tw *treeWorker) backup(nIdx int32, values []float64, vlossOn bool) {
	ar := &tw.arena
	for cur := nIdx; cur != nilNode; {
		n := ar.node(cur)
		st := ar.nstats(n.stats)
		for _, v := range values {
			iv := int64(v)
			atomic.AddInt64(&st.visits, 1)
			atomic.AddInt64(&st.sum, iv)
			for {
				m := atomic.LoadInt64(&st.max)
				if iv <= m || atomic.CompareAndSwapInt64(&st.max, m, iv) {
					break
				}
			}
		}
		if vlossOn && cur != tw.root {
			atomic.AddInt64(&st.vloss, -1)
		}
		cur = n.parent
	}
}

// finishCancelled completes a cancelled search: the episode committed so
// far is played to termination with the rollout policy, yielding the best
// incumbent schedule reachable without further search, and the schedule is
// returned together with an error wrapping ctx.Err().
//
//spear:timing — stamps the incumbent's Elapsed.
func (s *Scheduler) finishCancelled(ctx context.Context, env *simenv.Env, rng *rand.Rand, began time.Time) (*sched.Schedule, error) {
	s.stats.Cancelled = true
	e := env.Clone()
	if !e.Done() {
		if _, err := simenv.NewRolloutContext(s.cfg.Rollout).Rollout(e, rng); err != nil {
			return nil, fmt.Errorf("mcts: completing cancelled search: %w", err)
		}
	}
	out, err := e.Schedule(s.name)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(began)
	return out, fmt.Errorf("mcts: search cancelled after %d decisions: %w", s.stats.Decisions, ctx.Err())
}

// explorationConstant estimates the job makespan with a greedy packing run
// (Tetris) and scales it per the configuration. The Tetris estimate stamps
// its schedule's Elapsed with the wall clock; only est.Makespan
// (deterministic) feeds the constant.
//
//spear:timing
func (s *Scheduler) explorationConstant(g *dag.Graph, spec cluster.Spec) (float64, error) {
	est, err := baselines.NewTetrisScheduler().Schedule(g, spec)
	if err != nil {
		return 0, fmt.Errorf("mcts: greedy estimate: %w", err)
	}
	return s.cfg.ExplorationScale * float64(est.Makespan), nil
}

// simBuffers returns the reusable value and seed slices sized for k
// simulations.
func (sw *simWorker) simBuffers(k int) ([]float64, []int64) {
	if cap(sw.simValues) < k {
		sw.simValues = make([]float64, k)
		sw.simSeeds = make([]int64, k)
		sw.simSpans = make([]int64, k)
	}
	return sw.simValues[:k], sw.simSeeds[:k]
}

// simulate estimates node n's value with one or more rollouts, returning one
// negative-makespan value per simulation. The returned slice is owned by the
// sim worker and valid until its next simulate call. A terminal node's
// makespan is exact, so it is reported once per configured simulation — with
// RolloutsPerExpansion = k, a terminal leaf must carry the same backup
// weight (k visits) as an expanded leaf, or terminal values are diluted
// k-fold in every ancestor's mean. Multi-rollout simulations draw their
// seeds from rng sequentially and apply them by index, so each episode is
// the one a lone rollout with that seed would play.
func (sw *simWorker) simulate(n *anode, rng *rand.Rand) ([]float64, error) {
	k := sw.tw.s.cfg.RolloutsPerExpansion
	if n.env.Done() {
		values, _ := sw.simBuffers(k)
		exact := -float64(n.env.Makespan())
		for i := range values {
			values[i] = exact
		}
		return values, nil
	}
	values, seeds := sw.simBuffers(k)
	if k == 1 {
		makespan, err := sw.rctx.RolloutFrom(n.env, rng)
		if err != nil {
			return nil, fmt.Errorf("mcts: rollout %s: %w", sw.tw.s.cfg.Rollout.Name(), err)
		}
		values[0] = -float64(makespan)
		return values, nil
	}
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	spans := sw.simSpans[:k]
	if err := sw.brc.RolloutsFrom(n.env, seeds, spans); err != nil {
		return nil, fmt.Errorf("mcts: rollout %s: %w", sw.tw.s.cfg.Rollout.Name(), err)
	}
	for i, ms := range spans {
		values[i] = -float64(ms)
	}
	return values, nil
}
