package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/core"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/workload"
)

// spearSizes sizes the spear100 workload.
type spearSizes struct {
	dag               workload.RandomDAGConfig
	minJobs           int // jobs always scheduled; makespan_ratio is over them
	budget, minBudget int
	model             core.ModelConfig
	setupReps         int
}

func spearSizesFor(tiny bool) spearSizes {
	sz := spearSizes{
		dag:       workload.DefaultRandomDAGConfig(), // 100 tasks, one machine, 2 dims
		minJobs:   2,
		budget:    40,
		minBudget: 10,
		model: core.ModelConfig{
			TrainJobs:    8,
			PretrainCfg:  drl.PretrainConfig{Epochs: 8},
			ReinforceCfg: drl.TrainConfig{Epochs: 3, Rollouts: 8},
		},
		setupReps: 3,
	}
	if tiny {
		sz.dag.NumTasks = 15
		sz.minJobs = 2
		sz.budget, sz.minBudget = 8, 2
		sz.model = core.ModelConfig{
			TrainJobs:    2,
			TasksPerJob:  8,
			PretrainCfg:  drl.PretrainConfig{Epochs: 1},
			ReinforceCfg: drl.TrainConfig{Epochs: 1, Rollouts: 2},
		}
		sz.setupReps = 2
	}
	return sz
}

// spearInputs is the set-up of spear100: the trained policy and the job
// generator.
type spearInputs struct {
	sz   spearSizes
	seed int64
	net  *nn.Network
	feat drl.Features
	spec cluster.Spec
}

// job returns the i-th job of the seed's job stream.
func (in *spearInputs) job(i int) (*dag.Graph, error) {
	return workload.RandomDAG(rand.New(rand.NewSource(streamSeed(in.seed, i))), in.sz.dag)
}

// streamSeed derives the seed of item i of a workload's input stream.
func streamSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}

func buildSpearInputs(sz spearSizes, seed int64) (*spearInputs, string, error) {
	cfg := sz.model
	cfg.Seed = seed
	net, _, capacity, err := core.BuildModel(cfg, nil)
	if err != nil {
		return nil, "", err
	}
	in := &spearInputs{sz: sz, seed: seed, net: net, feat: cfg.Normalized().Feat, spec: cluster.Single(capacity)}
	fp, err := netFingerprint(net)
	if err != nil {
		return nil, "", err
	}
	for i := 0; i < sz.minJobs; i++ {
		g, err := in.job(i)
		if err != nil {
			return nil, "", err
		}
		fp += fmt.Sprintf("/%d:%d", g.NumTasks(), g.CriticalPath())
	}
	return in, fp, nil
}

// netFingerprint hashes a network's serialized weights.
func netFingerprint(net *nn.Network) (string, error) {
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes()) //spear:ignoreerr(hash.Hash writes never fail)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// searchScheduler is what the workloads need from an MCTS-based scheduler.
type searchScheduler interface {
	sched.Scheduler
	LastStats() mcts.Stats
	Metrics() obs.Snapshot
}

// newSpear builds the Spear scheduler. Untraced it is core.New, exactly as
// a user builds it. Traced it is the same assembly with the rollout policy
// and the expander decorated; the traced run's outputs must equal the
// untraced run's, which is what proves the two assemblies the same.
func (in *spearInputs) newSpear(tr *tracer) (searchScheduler, error) {
	cfg := core.Config{InitialBudget: in.sz.budget, MinBudget: in.sz.minBudget, TreeParallelism: 1, Seed: in.seed}
	if tr == nil {
		return core.New(in.net, in.feat, cfg)
	}
	rollout, err := drl.NewAgent(in.net, in.feat, false)
	if err != nil {
		return nil, err
	}
	expand, err := drl.NewAgent(in.net, in.feat, true)
	if err != nil {
		return nil, err
	}
	newExpander := func() mcts.Expander { return &tracedExpander{inner: drl.NewExpander(expand), acc: &tr.expand} }
	return mcts.NewNamed("Spear", mcts.Config{
		InitialBudget:   cfg.InitialBudget,
		MinBudget:       cfg.MinBudget,
		Rollout:         wrapPolicy(rollout, &tr.policy, &tr.pool),
		Expand:          newExpander(),
		NewExpander:     newExpander,
		Window:          in.feat.Window,
		Seed:            cfg.Seed,
		TreeParallelism: cfg.TreeParallelism,
	}), nil
}

// spearRun is one pass of spear100 over a job stream.
type spearRun struct {
	walls     []float64 // per-job Schedule wall, seconds
	ratios    []float64 // makespan over the job's lower bound
	rollouts  int64
	wall      time.Duration // whole pass, checks included
	outputs   []string
	attempted int
	failed    int
	snap      obs.Snapshot
}

// spearPass schedules jobs from the stream: exactly n of them when n > 0,
// else at least minJobs and until the measured time is up.
func spearPass(in *spearInputs, o options, n int, tr *tracer) (*spearRun, error) {
	s, err := in.newSpear(tr)
	if err != nil {
		return nil, err
	}
	rec := &planRecorder{tr: tr, faultEvery: o.faultEvery}
	wrapped := wrapScheduler(s, rec)
	run := &spearRun{}
	began := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		if n <= 0 && i >= in.sz.minJobs && o.deadline(began) {
			break
		}
		g, err := in.job(i)
		if err != nil {
			return nil, err
		}
		span := tr.begin("job", 0)
		rec.parent = span
		out, err := sched.ScheduleContext(context.Background(), wrapped, g, in.spec)
		tr.end(span)
		run.attempted++
		if err == nil {
			err = sched.Validate(g, in.spec, out)
		}
		st := s.LastStats()
		if err != nil {
			run.failed++
			run.outputs = append(run.outputs, fmt.Sprintf("job %d failed: %v", i, err))
			continue
		}
		run.walls = append(run.walls, rec.walls[len(rec.walls)-1].Seconds())
		lb, err := g.MakespanLowerBound(in.spec.Total())
		if err != nil {
			return nil, err
		}
		run.ratios = append(run.ratios, float64(out.Makespan)/float64(lb))
		run.rollouts += st.Rollouts
		run.outputs = append(run.outputs, fmt.Sprintf("job %d makespan %d rollouts %d decisions %d", i, out.Makespan, st.Rollouts, st.Decisions))
	}
	run.wall = time.Since(began)
	run.snap = s.Metrics()
	return run, nil
}

func runSpear100(o options, tr *tracer) (*result, error) {
	sz := spearSizesFor(o.tiny)
	var (
		in     *spearInputs
		setupS float64
		err    error
	)
	o.phase("setup", func() {
		in, setupS, err = timedSetup(sz.setupReps, 0, func() (*spearInputs, string, error) {
			return buildSpearInputs(sz, o.seed)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("spear100 set-up: %w", err)
	}
	var plain *spearRun
	o.phase("measure", func() { plain, err = spearPass(in, o, 0, nil) })
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if tr == nil {
		sum := 0.0
		for _, w := range plain.walls {
			sum += w
		}
		quality := plain.ratios
		if len(quality) > sz.minJobs {
			quality = quality[:sz.minJobs]
		}
		merge(res.Metrics, map[string]metric{
			"setup_s":        {setupS, "s"},
			"op_ms_p50":      {1000 * median(plain.walls), "ms"},
			"ops_per_s":      {ratio(float64(len(plain.walls)), sum), "1/s"},
			"sims_per_s":     {ratio(float64(plain.rollouts), sum), "1/s"},
			"makespan_ratio": {mean(quality), "ratio"},
		})
		return finishResult(res, false), nil
	}

	var traced *spearRun
	o.phase("traced", func() { traced, err = spearPass(in, o, plain.attempted, tr) })
	if err != nil {
		return nil, err
	}
	if err := sameOutputs(plain.outputs, traced.outputs); err != nil {
		return nil, err
	}
	if err := sameCounts(plain.snap, traced.snap, &tr.pool); err != nil {
		return nil, err
	}
	states, _, _ := tr.pool.states()
	var lt layerTimes
	o.phase("layers", func() { lt, err = timeLayers(states, in.net, in.feat, o.seed) })
	if err != nil {
		return nil, err
	}
	planBusy := tr.plan.busy()
	merge(res.Metrics, layerMetrics(lt))
	merge(res.Metrics, counterMetrics(plain.snap, nil))
	merge(res.Metrics, map[string]metric{
		"drl.policy_calls":    {float64(tr.policy.calls.Load()), "count"},
		"drl.policy_busy_s":   {tr.policy.busy(), "s"},
		"drl.expand_calls":    {float64(tr.expand.calls.Load()), "count"},
		"drl.expand_busy_s":   {tr.expand.busy(), "s"},
		"mcts.self_s":         {planBusy - tr.policy.busy() - tr.expand.busy(), "s"},
		"trace.overhead_frac": {ratio(traced.wall.Seconds(), plain.wall.Seconds()) - 1, "frac"},
	})
	return finishResult(res, true), nil
}
