package main

import (
	"fmt"
	"math/rand"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/serve"
	"spear/internal/workload"
)

// serveSizes sizes the serve-mcts workload.
type serveSizes struct {
	horizon           int64
	machines          int
	budget, minBudget int
	minRuns           int // serving runs always made; makespan_ratio and the JCTs are over them
	setupReps         int
	setupMin          time.Duration // serve.New takes milliseconds: repeat it for at least this long
	template          workload.TraceConfig
}

func serveSizesFor(tiny bool) serveSizes {
	sz := serveSizes{
		horizon:   1500,
		machines:  4,
		budget:    60,
		minBudget: 6,
		minRuns:   4,
		setupReps: 5,
		setupMin:  200 * time.Millisecond,
		template:  workload.DefaultTraceConfig(),
	}
	if tiny {
		sz.horizon = 300
		sz.budget, sz.minBudget = 6, 2
		sz.minRuns = 1
		sz.setupReps = 2
		sz.setupMin = 0
		sz.template.Jobs = 8
		sz.template.MaxMaps, sz.template.MaxReduces = 8, 8
		sz.template.MedianMaps, sz.template.MedianReds = 6, 6
	}
	return sz
}

// serveConfig is the serving run i of the seed's run stream: gold jobs
// arrive as a Poisson process (mean gap 40 slots) and batch jobs as a
// bursty Gamma process (mean gap 80, shape 0.3), every job is admitted,
// and four identical machines share the timeline.
func serveConfig(sz serveSizes, seed int64, i int) serve.Config {
	return serve.Config{
		Seed:         streamSeed(seed, i),
		Horizon:      sz.horizon,
		Algorithm:    "mcts",
		Machines:     sz.machines,
		SearchBudget: sz.budget,
		TreeParallel: 1,
		Admission:    serve.AdmissionConfig{Policy: serve.PolicyAlways},
		Template:     sz.template,
		Classes: []serve.ClassConfig{
			{Name: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 40}},
			{Name: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 80, Shape: 0.3}},
		},
	}
}

// newServeScheduler is the planning search of serve-mcts: pure MCTS with
// random expansion and random rollouts, one tree, one worker, as
// spear-serve -algo mcts builds it. Traced, the rollout policy is
// decorated to sample states (it is not a DRL policy, so its calls are not
// attributed to the drl layer).
func newServeScheduler(sz serveSizes, cfg serve.Config, tr *tracer) *mcts.Scheduler {
	mc := mcts.Config{
		InitialBudget:   sz.budget,
		MinBudget:       sz.minBudget,
		Seed:            cfg.Seed,
		TreeParallelism: 1,
	}
	if tr != nil {
		mc.Rollout = wrapPolicy(baselines.Random{}, nil, &tr.pool)
	}
	return mcts.New(mc)
}

// serveRun is one pass of serve-mcts over a run stream.
type serveRun struct {
	planWalls []float64 // per planning call, seconds
	runWall   time.Duration
	planned   int64
	rollouts  float64
	ratios    []float64            // plan makespan over the job's lower bound, first minRuns runs
	classJCT  map[string][]float64 // JCT of the completed jobs of the first minRuns runs, by class
	wall      time.Duration
	outputs   []string
	attempted int
	failed    int
	snap      obs.Snapshot
}

// servePass makes serving runs: exactly n when n > 0, else at least
// minRuns and until the measured time is up.
func servePass(sz serveSizes, o options, n int, tr *tracer) (*serveRun, error) {
	run := &serveRun{classJCT: map[string][]float64{}}
	began := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		if n <= 0 && i >= sz.minRuns && o.deadline(began) {
			break
		}
		cfg := serveConfig(sz, o.seed, i)
		search := newServeScheduler(sz, cfg, tr)
		rec := &planRecorder{tr: tr, faultEvery: o.faultEvery}
		srv, err := serve.New(cfg, wrapScheduler(search, rec), nil)
		if err != nil {
			return nil, err
		}
		span := tr.begin("serve.run", 0)
		rec.parent = span
		t0 := time.Now()
		log, runErr := srv.Run()
		wall := time.Since(t0)
		tr.end(span)

		run.runWall += wall
		run.attempted += len(rec.plans)
		for _, w := range rec.walls {
			run.planWalls = append(run.planWalls, w.Seconds())
		}
		snap := obs.MergeSnapshots(search.Metrics(), srv.Metrics())
		run.snap = obs.MergeSnapshots(run.snap, snap)
		run.rollouts += snapValue(snap, "spear_search_rollouts_total")
		if runErr != nil {
			run.failed++
			run.outputs = append(run.outputs, fmt.Sprintf("run %d failed: %v", i, runErr))
			continue
		}
		if i < sz.minRuns {
			for j, g := range rec.graphs {
				lb, err := g.MakespanLowerBound(rec.specs[j].Total())
				if err != nil {
					return nil, err
				}
				if rec.plans[j] != nil {
					run.ratios = append(run.ratios, float64(rec.plans[j].Makespan)/float64(lb))
				}
			}
		}
		bad, err := checkServeRun(log, rec)
		run.failed += bad
		if err != nil {
			run.outputs = append(run.outputs, fmt.Sprintf("run %d check: %v", i, err))
		}
		run.planned += log.Summary.Planned
		for _, ev := range log.Events {
			if ev.Kind == "complete" && i < sz.minRuns {
				run.classJCT[ev.Class] = append(run.classJCT[ev.Class], float64(ev.JCT))
			}
		}
		out := fmt.Sprintf("run %d planned %d rollouts %.0f", i, log.Summary.Planned, snapValue(snap, "spear_search_rollouts_total"))
		for _, cs := range log.Summary.Classes {
			out += fmt.Sprintf(" %s=%.6f", cs.Class, cs.MeanJCT)
		}
		run.outputs = append(run.outputs, out)
	}
	run.wall = time.Since(began)
	return run, nil
}

// checkServeRun checks a drained serving run against the plans the
// scheduler returned: every plan is a valid schedule of its job, the i-th
// plan is the one committed by the i-th plan event, and every committed
// task re-placed into a fresh cluster at its absolute start fits, so
// per-machine capacity holds across the whole timeline. It returns the
// number of failed plans.
func checkServeRun(log *serve.RunLog, rec *planRecorder) (int, error) {
	var planEvents []serve.LogEvent
	completed := 0
	for _, ev := range log.Events {
		switch ev.Kind {
		case "plan":
			planEvents = append(planEvents, ev)
		case "complete":
			completed++
		}
	}
	if len(planEvents) != len(rec.plans) {
		return 1, fmt.Errorf("%d plan events but %d planning calls", len(planEvents), len(rec.plans))
	}
	if completed != len(planEvents) {
		return 1, fmt.Errorf("%d jobs planned but %d completed", len(planEvents), completed)
	}
	if len(rec.plans) == 0 {
		return 0, nil
	}
	timeline, err := cluster.NewMulti(rec.specs[0])
	if err != nil {
		return 1, err
	}
	failed := 0
	var first error
	for i, ev := range planEvents {
		g, plan := rec.graphs[i], rec.plans[i]
		err := sched.Validate(g, rec.specs[i], plan)
		if err == nil && plan.Makespan != ev.Makespan {
			err = fmt.Errorf("plan event makespan %d, scheduler returned %d", ev.Makespan, plan.Makespan)
		}
		for _, p := range plan.Placements {
			if err != nil {
				break
			}
			t := g.Task(p.Task)
			err = timeline.Place(p.Machine, ev.Start+p.Start, t.Demand, t.Runtime)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s: %w", ev.Job, err)
			}
		}
	}
	return failed, first
}

func runServe(o options, tr *tracer) (*result, error) {
	sz := serveSizesFor(o.tiny)
	var (
		setupS float64
		err    error
	)
	o.phase("setup", func() {
		_, setupS, err = timedSetup(sz.setupReps, sz.setupMin, func() (*serve.Server, string, error) {
			cfg := serveConfig(sz, o.seed, 0)
			srv, err := serve.New(cfg, newServeScheduler(sz, cfg, nil), nil)
			return srv, "", err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("serve-mcts set-up: %w", err)
	}
	var plain *serveRun
	o.phase("measure", func() { plain, err = servePass(sz, o, 0, nil) })
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if tr == nil {
		merge(res.Metrics, map[string]metric{
			"setup_s":        {setupS, "s"},
			"op_ms_p50":      {1000 * median(plain.planWalls), "ms"},
			"ops_per_s":      {ratio(float64(plain.planned), plain.runWall.Seconds()), "1/s"},
			"sims_per_s":     {ratio(plain.rollouts, plain.runWall.Seconds()), "1/s"},
			"makespan_ratio": {mean(plain.ratios), "ratio"},
		})
		return finishResult(res, false), nil
	}

	runs := len(plain.outputs)
	var traced *serveRun
	o.phase("traced", func() { traced, err = servePass(sz, o, runs, tr) })
	if err != nil {
		return nil, err
	}
	if err := sameOutputs(plain.outputs, traced.outputs); err != nil {
		return nil, err
	}
	if err := sameCounts(plain.snap, traced.snap, &tr.pool); err != nil {
		return nil, err
	}
	// No network runs here; the nn and drl kernels are timed on an untrained
	// paper-size network so the serve states still get a cost.
	feat := drl.DefaultFeatures()
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, err
	}
	states, _, _ := tr.pool.states()
	var lt layerTimes
	o.phase("layers", func() { lt, err = timeLayers(states, net, feat, o.seed) })
	if err != nil {
		return nil, err
	}
	planBusy := tr.plan.busy()
	merge(res.Metrics, layerMetrics(lt))
	merge(res.Metrics, counterMetrics(plain.snap, nil))
	merge(res.Metrics, map[string]metric{
		"mcts.self_s":           {planBusy, "s"},
		"serve.plan_busy_s":     {planBusy, "s"},
		"serve.commit_s":        {traced.runWall.Seconds() - planBusy, "s"},
		"serve.replans":         {snapValue(plain.snap, "spear_serve_replans_total"), "count"},
		"serve.plans":           {float64(len(plain.planWalls)), "count"},
		"serve.plan_ms_p90":     {1000 * quantile(plain.planWalls, 0.9), "ms"},
		"serve.jct_slots_gold":  {mean(plain.classJCT["gold"]), "slots"},
		"serve.jct_slots_batch": {mean(plain.classJCT["batch"]), "slots"},
		"trace.overhead_frac":   {ratio(traced.wall.Seconds(), plain.wall.Seconds()) - 1, "frac"},
	})
	return finishResult(res, true), nil
}
