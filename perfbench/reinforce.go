package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/simenv"
	"spear/internal/workload"
)

// reinforceSizes sizes the reinforce workload.
type reinforceSizes struct {
	dag       workload.RandomDAGConfig
	jobs      int
	pretrain  drl.PretrainConfig
	train     drl.TrainConfig // one epoch per Train call
	minEpochs int             // epochs always run; makespan_ratio is the last one's
	setupReps int
}

func reinforceSizesFor(tiny bool) reinforceSizes {
	dagCfg := workload.DefaultRandomDAGConfig()
	dagCfg.NumTasks = 25 // the paper's training-example size
	sz := reinforceSizes{
		dag:      dagCfg,
		jobs:     8,
		pretrain: drl.PretrainConfig{Epochs: 8},
		train: drl.TrainConfig{
			Epochs:        1,
			Rollouts:      20, // the paper's baseline rollouts per example
			BatchExamples: 4,
			Workers:       runtime.GOMAXPROCS(0),
		},
		minEpochs: 5,
		setupReps: 3,
	}
	if tiny {
		sz.dag.NumTasks = 8
		sz.jobs = 2
		sz.pretrain.Epochs = 1
		sz.train.Rollouts = 3
		sz.minEpochs = 2
		sz.setupReps = 2
	}
	return sz
}

// reinforceInputs is the set-up of reinforce: the training jobs and the
// network warm-started on them by supervised pretraining.
type reinforceInputs struct {
	jobs     []*dag.Graph
	lbMean   float64 // mean makespan lower bound of the jobs
	capacity resource.Vector
	feat     drl.Features
	net      *nn.Network
}

func buildReinforceInputs(sz reinforceSizes, seed int64) (*reinforceInputs, string, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs, err := workload.RandomBatch(rng, sz.dag, sz.jobs)
	if err != nil {
		return nil, "", err
	}
	in := &reinforceInputs{jobs: jobs, capacity: sz.dag.Capacity(), feat: drl.DefaultFeatures()}
	for _, g := range jobs {
		lb, err := g.MakespanLowerBound(in.capacity)
		if err != nil {
			return nil, "", err
		}
		in.lbMean += float64(lb) / float64(len(jobs))
	}
	if in.net, err = drl.DefaultNetwork(in.feat, rng); err != nil {
		return nil, "", err
	}
	if _, err := drl.Pretrain(in.net, in.feat, jobs, in.capacity, sz.pretrain, rng); err != nil {
		return nil, "", err
	}
	fp, err := netFingerprint(in.net)
	return in, fp, err
}

// probeStates are the initial states of the training jobs, encoded, on
// which the network's outputs are checked after every epoch.
func (in *reinforceInputs) probeStates() ([][]float64, error) {
	xs := make([][]float64, 0, len(in.jobs))
	for _, g := range in.jobs {
		e, err := simenv.New(g, in.capacity, simenv.Config{Window: in.feat.Window, Mode: simenv.OneSlot})
		if err != nil {
			return nil, err
		}
		xs = append(xs, in.feat.Encode(e, nil))
	}
	return xs, nil
}

// reinforceRun is one pass of reinforce.
type reinforceRun struct {
	walls     []float64 // per epoch, seconds
	curve     []drl.EpochStats
	net       *nn.Network
	wall      time.Duration
	outputs   []string
	attempted int
	failed    int
	stats     obs.TrainStats
}

// reinforcePass trains a copy of the warm-started network: exactly n
// epochs when n > 0, else at least minEpochs and until the measured time
// is up. Traced, the trainer's own obs metrics are on and every epoch gets
// a span.
func reinforcePass(in *reinforceInputs, sz reinforceSizes, o options, n int, tr *tracer) (*reinforceRun, error) {
	probes, err := in.probeStates()
	if err != nil {
		return nil, err
	}
	run := &reinforceRun{net: in.net.Clone()}
	cfg := sz.train
	var tm *obs.TrainMetrics
	if tr != nil {
		tm = obs.NewTrainMetrics(nil)
		cfg.Metrics = tm
	}
	rng := rand.New(rand.NewSource(streamSeed(o.seed, 0)))
	scratch := run.net.NewScratch()
	began := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		if n <= 0 && i >= sz.minEpochs && o.deadline(began) {
			break
		}
		span := tr.begin("epoch", 0)
		t0 := time.Now()
		curve, err := drl.Train(run.net, in.feat, in.jobs, in.capacity, cfg, rng, nil)
		wall := time.Since(t0)
		tr.end(span)
		run.attempted++
		if err == nil {
			err = checkEpoch(curve, run.net, scratch, probes)
		}
		if err != nil {
			run.failed++
			run.outputs = append(run.outputs, fmt.Sprintf("epoch %d failed: %v", i, err))
			continue
		}
		st := curve[0]
		st.Epoch = i
		run.walls = append(run.walls, wall.Seconds())
		run.curve = append(run.curve, st)
		run.outputs = append(run.outputs, fmt.Sprintf("epoch %d mean %.17g min %d max %d", i, st.MeanMakespan, st.MinMakespan, st.MaxMakespan))
	}
	run.wall = time.Since(began)
	if tm != nil {
		run.stats = tm.Stats()
	}
	return run, nil
}

// checkEpoch checks one epoch's statistics and that the updated network
// still gives finite outputs on the probe states.
func checkEpoch(curve []drl.EpochStats, net *nn.Network, scratch *nn.Scratch, probes [][]float64) error {
	if len(curve) != 1 {
		return fmt.Errorf("want 1 epoch of statistics, got %d", len(curve))
	}
	st := curve[0]
	if !finite(st.MeanMakespan) || st.MeanMakespan <= 0 || st.MinMakespan < 1 || st.MaxMakespan < st.MinMakespan ||
		st.MeanMakespan < float64(st.MinMakespan) || st.MeanMakespan > float64(st.MaxMakespan) {
		return fmt.Errorf("inconsistent epoch statistics %+v", st)
	}
	for i, x := range probes {
		logits, err := net.ForwardInto(scratch, x)
		if err != nil {
			return err
		}
		if !finite(logits...) {
			return fmt.Errorf("non-finite network output on probe state %d", i)
		}
	}
	return nil
}

// sampleEpisodes plays one episode per training job with the trained
// sampling policy (OneSlot, as in training) and keeps every state in the
// pool: the states the REINFORCE sampler visits.
func sampleEpisodes(in *reinforceInputs, net *nn.Network, pool *statePool, seed int64) error {
	agent, err := drl.NewAgent(net, in.feat, false)
	if err != nil {
		return err
	}
	pool.setEvery(1)
	policy := wrapPolicy(agent, nil, pool)
	rng := rand.New(rand.NewSource(seed))
	for _, g := range in.jobs {
		e, err := simenv.New(g, in.capacity, simenv.Config{Window: in.feat.Window, Mode: simenv.OneSlot})
		if err != nil {
			return err
		}
		if _, err := simenv.Run(e, policy, rng); err != nil {
			return err
		}
	}
	return nil
}

func runReinforce(o options, tr *tracer) (*result, error) {
	sz := reinforceSizesFor(o.tiny)
	var (
		in     *reinforceInputs
		setupS float64
		err    error
	)
	o.phase("setup", func() {
		in, setupS, err = timedSetup(sz.setupReps, 0, func() (*reinforceInputs, string, error) {
			return buildReinforceInputs(sz, o.seed)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("reinforce set-up: %w", err)
	}
	var plain *reinforceRun
	o.phase("measure", func() { plain, err = reinforcePass(in, sz, o, 0, nil) })
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if tr == nil {
		sum := 0.0
		for _, w := range plain.walls {
			sum += w
		}
		quality := 0.0
		if len(plain.curve) >= sz.minEpochs {
			// Every job gets the same number of rollouts, so the epoch's mean
			// makespan over the jobs' mean lower bound is the ratio of sums.
			quality = plain.curve[sz.minEpochs-1].MeanMakespan / in.lbMean
		}
		trajectories := float64(len(plain.walls) * sz.jobs * sz.train.Rollouts)
		merge(res.Metrics, map[string]metric{
			"setup_s":        {setupS, "s"},
			"op_ms_p50":      {1000 * median(plain.walls), "ms"},
			"ops_per_s":      {ratio(float64(len(plain.walls)), sum), "1/s"},
			"sims_per_s":     {ratio(trajectories, sum), "1/s"},
			"makespan_ratio": {quality, "ratio"},
		})
		return finishResult(res, false), nil
	}

	var traced *reinforceRun
	o.phase("traced", func() { traced, err = reinforcePass(in, sz, o, plain.attempted, tr) })
	if err != nil {
		return nil, err
	}
	if err := sameOutputs(plain.outputs, traced.outputs); err != nil {
		return nil, err
	}
	if err := sampleEpisodes(in, traced.net, &tr.pool, o.seed); err != nil {
		return nil, err
	}
	states, _, _ := tr.pool.states()
	var lt layerTimes
	o.phase("layers", func() { lt, err = timeLayers(states, traced.net, in.feat, o.seed) })
	if err != nil {
		return nil, err
	}
	st := traced.stats
	merge(res.Metrics, layerMetrics(lt))
	merge(res.Metrics, map[string]metric{
		// Every recorded decision is one policy evaluation while sampling and
		// one candidate row of the batched REINFORCE forward/backward pass.
		"drl.policy_calls":    {float64(st.Steps), "count"},
		"drl.policy_busy_s":   {st.SampleTime.Seconds(), "s"},
		"nn.batch_rows":       {float64(st.Steps), "count"},
		"train.sample_s":      {st.SampleTime.Seconds(), "s"},
		"train.backprop_s":    {st.BackpropTime.Seconds(), "s"},
		"train.apply_s":       {st.ApplyTime.Seconds(), "s"},
		"train.trajectories":  {float64(st.Trajectories), "count"},
		"train.steps":         {float64(st.Steps), "count"},
		"trace.overhead_frac": {ratio(traced.wall.Seconds(), plain.wall.Seconds()) - 1, "frac"},
	})
	return finishResult(res, true), nil
}
