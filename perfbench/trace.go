package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// The tracer records what the traced run sees at the boundaries of the
// program's layers, from the benchmark's side of each call: one span per
// job, planning call, serving run or epoch; busy-time accumulators for the
// per-step calls (a spear100 job makes ~3e5 policy calls, too many for a
// span each); and a pool of sampled episode states on which the layers'
// kernels are timed after the run. Nothing inside the program is traced.
type tracer struct {
	epoch time.Time
	runID string

	mu    sync.Mutex
	spans []span

	policy accumulator // DRL rollout-policy calls
	expand accumulator // DRL expander calls
	plan   accumulator // scheduler calls
	pool   statePool
}

// span is one traced call. Parent 0 means a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// accumulator counts calls and their summed wall time. Safe for concurrent
// use.
type accumulator struct {
	calls  atomic.Int64 //spear:atomic
	busyNS atomic.Int64 //spear:atomic
}

func (a *accumulator) add(d time.Duration) {
	a.calls.Add(1)
	a.busyNS.Add(int64(d))
}

func (a *accumulator) busy() float64 { return time.Duration(a.busyNS.Load()).Seconds() }

// poolSize is how many sampled states a traced run keeps; sampleEvery is
// the policy-call stride between samples.
const (
	poolSize    = 256
	sampleEvery = 997
)

// statePool keeps a cyclic buffer of cloned episode states: every
// every-th observed state is copied into the next slot, reusing the slot's
// storage once the buffer has wrapped.
type statePool struct {
	mu     sync.Mutex
	every  int64         //spear:guardedby(mu) sampling stride; 0 means sampleEvery
	seen   int64         //spear:guardedby(mu)
	next   int           //spear:guardedby(mu)
	clones int64         //spear:guardedby(mu) CloneInto calls made by the pool (they bump the sim counters)
	reuses int64         //spear:guardedby(mu) of those, the ones into a recycled slot
	envs   []*simenv.Env //spear:guardedby(mu)
}

func (p *statePool) setEvery(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.every = n
}

func (p *statePool) observe(e *simenv.Env) {
	p.mu.Lock()
	defer p.mu.Unlock()
	every := p.every
	if every <= 0 {
		every = sampleEvery
	}
	p.seen++
	if p.seen%every != 0 {
		return
	}
	if p.envs == nil {
		p.envs = make([]*simenv.Env, 0, poolSize)
	}
	slot := p.next % poolSize
	p.next++
	p.clones++
	if slot < len(p.envs) {
		p.reuses++
		p.envs[slot] = e.CloneInto(p.envs[slot])
		return
	}
	p.envs = append(p.envs, e.Clone())
}

// states returns the sampled states and how many clones, and recycled
// clones, the pool made.
func (p *statePool) states() (envs []*simenv.Env, clones, reuses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*simenv.Env(nil), p.envs...), p.clones, p.reuses
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), runID: fmt.Sprintf("r%x", time.Now().UnixNano())}
}

// begin opens a span under parent (0 = root) and returns its id. A nil
// tracer records nothing and returns 0.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.runID, Name: name, StartNS: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// writeSpans writes every recorded span as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Policy decorators. A decorator must expose exactly the optional
// interfaces of the policy it wraps: the search takes the allocation-free
// ChooseCtx path only for a simenv.ContextPolicy and lock-steps batched
// rollouts only for a simenv.BatchPolicy, so hiding or adding either would
// change what the traced run measures.

// tracedPolicy counts (and, when timed, times) every decision of the
// wrapped policy and offers each decision's state to the state pool.
type tracedPolicy struct {
	inner simenv.Policy
	acc   *accumulator // nil: count nothing (a layer the metrics do not attribute)
	pool  *statePool
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Choose(e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	p.pool.observe(e)
	if p.acc == nil {
		return p.inner.Choose(e, legal, rng)
	}
	t0 := time.Now()
	a, err := p.inner.Choose(e, legal, rng)
	p.acc.add(time.Since(t0))
	return a, err
}

type ctxPart struct {
	p  *tracedPolicy
	cp simenv.ContextPolicy
}

func (c ctxPart) NewContext() simenv.PolicyContext { return c.cp.NewContext() }

func (c ctxPart) ChooseCtx(pc simenv.PolicyContext, e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	c.p.pool.observe(e)
	if c.p.acc == nil {
		return c.cp.ChooseCtx(pc, e, legal, rng)
	}
	t0 := time.Now()
	a, err := c.cp.ChooseCtx(pc, e, legal, rng)
	c.p.acc.add(time.Since(t0))
	return a, err
}

type batchPart struct {
	p  *tracedPolicy
	bp simenv.BatchPolicy
}

func (b batchPart) NewBatchContext(maxRows int) simenv.BatchPolicyContext {
	return b.bp.NewBatchContext(maxRows)
}

func (b batchPart) ChooseBatch(pc simenv.BatchPolicyContext, envs []*simenv.Env, legal [][]simenv.Action, rngs []*rand.Rand, out []simenv.Action) error {
	for _, e := range envs {
		b.p.pool.observe(e)
	}
	t0 := time.Now()
	err := b.bp.ChooseBatch(pc, envs, legal, rngs, out)
	if b.p.acc != nil {
		b.p.acc.calls.Add(int64(len(envs)))
		b.p.acc.busyNS.Add(int64(time.Since(t0)))
	}
	return err
}

type tracedCtxPolicy struct {
	*tracedPolicy
	ctxPart
}

type tracedBatchPolicy struct {
	*tracedPolicy
	batchPart
}

type tracedCtxBatchPolicy struct {
	*tracedPolicy
	ctxPart
	batchPart
}

// wrapPolicy decorates p; acc may be nil to only sample states.
func wrapPolicy(p simenv.Policy, acc *accumulator, pool *statePool) simenv.Policy {
	base := &tracedPolicy{inner: p, acc: acc, pool: pool}
	cp, isCtx := p.(simenv.ContextPolicy)
	bp, isBatch := p.(simenv.BatchPolicy)
	switch {
	case isCtx && isBatch:
		return &tracedCtxBatchPolicy{base, ctxPart{base, cp}, batchPart{base, bp}}
	case isCtx:
		return &tracedCtxPolicy{base, ctxPart{base, cp}}
	case isBatch:
		return &tracedBatchPolicy{base, batchPart{base, bp}}
	default:
		return base
	}
}

// tracedExpander times every expansion choice of the wrapped expander.
type tracedExpander struct {
	inner mcts.Expander
	acc   *accumulator
}

func (x *tracedExpander) Name() string { return x.inner.Name() }

func (x *tracedExpander) Next(e *simenv.Env, untried []simenv.Action, rng *rand.Rand) (int, error) {
	t0 := time.Now()
	i, err := x.inner.Next(e, untried, rng)
	x.acc.add(time.Since(t0))
	return i, err
}

// planRecorder is shared by the scheduler decorators of one workload: it
// keeps every returned plan (for the output checks), the wall time of each
// call, and, in the traced run, a span per call.
type planRecorder struct {
	tr         *tracer
	parent     int // span the planning calls nest under
	faultEvery int // corrupt every n-th plan (self-test); 0 = never

	graphs []*dag.Graph
	specs  []cluster.Spec
	plans  []*sched.Schedule
	walls  []time.Duration
}

func (r *planRecorder) record(g *dag.Graph, spec cluster.Spec, s *sched.Schedule, wall time.Duration) {
	r.graphs = append(r.graphs, g)
	r.specs = append(r.specs, spec)
	r.plans = append(r.plans, s)
	r.walls = append(r.walls, wall)
	if r.tr != nil {
		r.tr.plan.add(wall)
	}
}

// corrupt makes s invalid, on the calls the fault injector selects, by
// starting its first task one slot before time 0.
func (r *planRecorder) corrupt(s *sched.Schedule) {
	if r.faultEvery <= 0 || s == nil || len(s.Placements) == 0 || (len(r.plans)+1)%r.faultEvery != 0 {
		return
	}
	s.Placements[0].Start = -1
}

// recordedScheduler decorates a sched.Scheduler; recordedCtxScheduler adds
// ScheduleContext exactly when the wrapped scheduler has it.
type recordedScheduler struct {
	inner sched.Scheduler
	rec   *planRecorder
}

func (s *recordedScheduler) Name() string { return s.inner.Name() }

func (s *recordedScheduler) Schedule(g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	id := s.rec.tr.begin("plan", s.rec.parent)
	t0 := time.Now()
	out, err := s.inner.Schedule(g, spec)
	wall := time.Since(t0)
	s.rec.tr.end(id)
	s.rec.corrupt(out)
	s.rec.record(g, spec, out, wall)
	return out, err
}

type recordedCtxScheduler struct {
	*recordedScheduler
	cs sched.ContextScheduler
}

func (s *recordedCtxScheduler) ScheduleContext(ctx context.Context, g *dag.Graph, spec cluster.Spec) (*sched.Schedule, error) {
	id := s.rec.tr.begin("plan", s.rec.parent)
	t0 := time.Now()
	out, err := s.cs.ScheduleContext(ctx, g, spec)
	wall := time.Since(t0)
	s.rec.tr.end(id)
	s.rec.corrupt(out)
	s.rec.record(g, spec, out, wall)
	return out, err
}

func wrapScheduler(inner sched.Scheduler, rec *planRecorder) sched.Scheduler {
	base := &recordedScheduler{inner: inner, rec: rec}
	if cs, ok := inner.(sched.ContextScheduler); ok {
		return &recordedCtxScheduler{base, cs}
	}
	return base
}

var errNondeterministicSetup = errors.New("set-up is not a pure function of the seed: two builds differ")
