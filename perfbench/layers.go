package main

import (
	"fmt"
	"math/rand"
	"time"

	"spear/internal/cluster"
	"spear/internal/drl"
	"spear/internal/nn"
	"spear/internal/obs"
	"spear/internal/resource"
	"spear/internal/simenv"
)

// layerTimes are per-call kernel costs measured after a traced run on the
// states it sampled, so they reflect the states the workload really visits.
type layerTimes struct {
	encodeNS        float64 // drl Features.Encode
	forwardNS       float64 // nn ForwardInto, one row
	forwardBatchNS  float64 // nn ForwardBatchInto, per row
	backwardBatchNS float64 // nn BackwardBatchInto, per row
	stepNS          float64 // simenv Env.Step
	cloneNS         float64 // simenv Env.CloneInto
	legalNS         float64 // simenv Env.LegalActionsInto
	fitsNS          float64 // cluster Multi.FitsAt
	placeNS         float64 // cluster Multi.Place
	earliestNS      float64 // cluster Multi.EarliestStart
}

// kernelBlocks is how many timing blocks each kernel gets; the reported
// cost is the median block's ns/op.
const kernelBlocks = 5

// batchRows matches the row count of the REINFORCE backprop chunks.
const batchRows = 16

// timeKernel runs body (which performs ops operations and returns the time
// they took) kernelBlocks times and returns the median ns per operation.
func timeKernel(ops int, body func() (time.Duration, error)) (float64, error) {
	if ops == 0 {
		return 0, nil
	}
	per := make([]float64, 0, kernelBlocks)
	for b := 0; b < kernelBlocks; b++ {
		d, err := body()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// timeLayers measures every kernel on states with net and feat. The
// states' own metric bundles keep counting, as they do in the program.
func timeLayers(states []*simenv.Env, net *nn.Network, feat drl.Features, seed int64) (layerTimes, error) {
	var lt layerTimes
	if len(states) == 0 {
		return lt, nil
	}
	var err error
	if err = timeNN(&lt, states, net, feat, seed); err != nil {
		return lt, err
	}
	if err = timeSim(&lt, states, seed); err != nil {
		return lt, err
	}
	return lt, timeCluster(&lt, states)
}

func timeNN(lt *layerTimes, states []*simenv.Env, net *nn.Network, feat drl.Features, seed int64) error {
	in, out := feat.InputSize(), feat.OutputSize()
	xs := make([]float64, len(states)*in)
	var err error
	lt.encodeNS, err = timeKernel(len(states), func() (time.Duration, error) {
		t0 := time.Now()
		for i, e := range states {
			feat.Encode(e, xs[i*in:(i+1)*in])
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	scratch := net.NewScratch()
	lt.forwardNS, err = timeKernel(len(states), func() (time.Duration, error) {
		t0 := time.Now()
		for i := range states {
			logits, err := net.ForwardInto(scratch, xs[i*in:(i+1)*in])
			if err != nil {
				return 0, err
			}
			if !finite(logits...) {
				return 0, fmt.Errorf("nn: non-finite logits on sampled state %d", i)
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	chunks := len(states) / batchRows
	if chunks == 0 {
		return nil
	}
	lt.forwardBatchNS, err = timeKernel(chunks*batchRows, func() (time.Duration, error) {
		t0 := time.Now()
		for c := 0; c < chunks; c++ {
			if _, err := net.ForwardBatchInto(scratch, xs[c*batchRows*in:(c+1)*batchRows*in], batchRows); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	// Logit gradients of a sampled-action policy step: nonzero everywhere,
	// so the backward kernel skips nothing.
	rng := rand.New(rand.NewSource(seed))
	dl := make([]float64, batchRows*out)
	for i := range dl {
		dl[i] = rng.Float64() - 0.5
	}
	grads := net.NewGrads()
	lt.backwardBatchNS, err = timeKernel(chunks*batchRows, func() (time.Duration, error) {
		var busy time.Duration
		for c := 0; c < chunks; c++ {
			if _, err := net.ForwardBatchInto(scratch, xs[c*batchRows*in:(c+1)*batchRows*in], batchRows); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if err := net.BackwardBatchInto(scratch, dl, batchRows, grads); err != nil {
				return 0, err
			}
			busy += time.Since(t0)
		}
		return busy, nil
	})
	return err
}

func timeSim(lt *layerTimes, states []*simenv.Env, seed int64) error {
	var (
		scratch *simenv.Env
		legal   []simenv.Action
		err     error
	)
	lt.cloneNS, err = timeKernel(len(states), func() (time.Duration, error) {
		t0 := time.Now()
		for _, e := range states {
			scratch = e.CloneInto(scratch)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	lt.legalNS, err = timeKernel(len(states), func() (time.Duration, error) {
		t0 := time.Now()
		for _, e := range states {
			legal = e.LegalActionsInto(legal[:0])
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	// One fixed, seeded legal action per state; each block steps fresh
	// copies so every Step sees the sampled state.
	rng := rand.New(rand.NewSource(seed))
	actions := make([]simenv.Action, len(states))
	for i, e := range states {
		legal = e.LegalActionsInto(legal[:0])
		if len(legal) == 0 {
			return fmt.Errorf("simenv: sampled state %d has no legal action", i)
		}
		actions[i] = legal[rng.Intn(len(legal))]
	}
	copies := make([]*simenv.Env, len(states))
	lt.stepNS, err = timeKernel(len(states), func() (time.Duration, error) {
		for i, e := range states {
			copies[i] = e.CloneInto(copies[i])
		}
		t0 := time.Now()
		for i, c := range copies {
			if err := c.Step(actions[i]); err != nil {
				return 0, fmt.Errorf("simenv: step on sampled state %d: %w", i, err)
			}
		}
		return time.Since(t0), nil
	})
	return err
}

// clusterOp is one placement query against a sampled state's cluster: a
// visible task's demand on one machine, from the state's clock.
type clusterOp struct {
	space    *cluster.Multi
	machine  int
	from     int64
	demand   resource.Vector
	duration int64
	start    int64 // earliest fitting start, for Place
}

// maxClusterOps caps the queries per timing block.
const maxClusterOps = 4096

func timeCluster(lt *layerTimes, states []*simenv.Env) error {
	var ops []clusterOp
	for _, e := range states {
		m := e.Cluster()
		g := e.Graph()
		for v := 0; v < e.NumVisible() && len(ops) < maxClusterOps; v++ {
			task := g.Task(e.VisibleTask(v))
			for mi := 0; mi < m.NumMachines() && len(ops) < maxClusterOps; mi++ {
				ops = append(ops, clusterOp{space: m, machine: mi, from: e.Now(), demand: task.Demand, duration: task.Runtime})
			}
		}
	}
	var err error
	lt.fitsNS, err = timeKernel(len(ops), func() (time.Duration, error) {
		t0 := time.Now()
		for _, op := range ops {
			op.space.FitsAt(op.machine, op.from, op.demand, op.duration)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	lt.earliestNS, err = timeKernel(len(ops), func() (time.Duration, error) {
		t0 := time.Now()
		for i := range ops {
			op := &ops[i]
			start, err := op.space.EarliestStart(op.machine, op.from, op.demand, op.duration)
			if err != nil {
				return 0, fmt.Errorf("cluster: earliest start: %w", err)
			}
			op.start = start
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	copies := make([]*cluster.Multi, len(ops))
	lt.placeNS, err = timeKernel(len(ops), func() (time.Duration, error) {
		for i, op := range ops {
			copies[i] = op.space.CloneInto(copies[i])
		}
		t0 := time.Now()
		for i, op := range ops {
			if err := copies[i].Place(op.machine, op.start, op.demand, op.duration); err != nil {
				return 0, fmt.Errorf("cluster: place at the earliest start: %w", err)
			}
		}
		return time.Since(t0), nil
	})
	return err
}

// snapValue reads one series of an obs snapshot, 0 when absent.
func snapValue(s obs.Snapshot, name string) float64 {
	v, ok := s.Value(name)
	if !ok {
		return 0
	}
	return v
}

// layerMetrics are the per-layer metrics every traced run reports; a layer
// a workload does not exercise reads 0.
func layerMetrics(lt layerTimes) map[string]metric {
	return map[string]metric{
		"nn.forward_ns":                {lt.forwardNS, "ns"},
		"nn.forward_batch_ns_per_row":  {lt.forwardBatchNS, "ns"},
		"nn.backward_batch_ns_per_row": {lt.backwardBatchNS, "ns"},
		"drl.encode_ns":                {lt.encodeNS, "ns"},
		"simenv.step_ns":               {lt.stepNS, "ns"},
		"simenv.clone_ns":              {lt.cloneNS, "ns"},
		"simenv.legal_ns":              {lt.legalNS, "ns"},
		"cluster.fits_ns":              {lt.fitsNS, "ns"},
		"cluster.place_ns":             {lt.placeNS, "ns"},
		"cluster.earliest_start_ns":    {lt.earliestNS, "ns"},
	}
}

// counterMetrics turns a scheduler's obs snapshot into the count metrics
// of the simenv, cluster, mcts and nn layers. pool is the traced run's
// state pool when snap comes from the traced run (its clones are removed),
// nil otherwise.
func counterMetrics(snap obs.Snapshot, pool *statePool) map[string]metric {
	clones := snapValue(snap, "spear_sim_env_clones_total")
	reuse := snapValue(snap, "spear_sim_env_clone_reuse_total")
	if pool != nil {
		_, poolClones, poolReuses := pool.states()
		clones -= float64(poolClones)
		reuse -= float64(poolReuses)
	}
	slotReuse := snapValue(snap, "spear_cluster_slot_reuse_total")
	slotGrow := snapValue(snap, "spear_cluster_slot_grow_total")
	decisions := snapValue(snap, "spear_search_decisions_total")
	return map[string]metric{
		"simenv.slot_advances":     {snapValue(snap, "spear_sim_slot_advances_total"), "count"},
		"simenv.tasks_placed":      {snapValue(snap, "spear_sim_tasks_placed_total"), "count"},
		"simenv.env_clones":        {clones, "count"},
		"simenv.clone_reuse_ratio": {ratio(reuse, clones), "ratio"},
		"cluster.slot_reuse":       {slotReuse, "count"},
		"cluster.slot_grow":        {slotGrow, "count"},
		"cluster.slot_reuse_ratio": {ratio(slotReuse, slotReuse+slotGrow), "ratio"},
		"mcts.decisions":           {decisions, "count"},
		"mcts.forced_ratio":        {ratio(snapValue(snap, "spear_search_forced_moves_total"), decisions), "ratio"},
		"mcts.iterations":          {snapValue(snap, "spear_search_iterations_total"), "count"},
		"mcts.expansions":          {snapValue(snap, "spear_search_expansions_total"), "count"},
		"mcts.rollouts":            {snapValue(snap, "spear_search_rollouts_total"), "count"},
		"nn.batch_rows":            {snapValue(snap, "spear_nn_batch_rows_total"), "count"},
	}
}

// merge copies every entry of src into dst.
func merge(dst map[string]metric, src map[string]metric) {
	for k, v := range src {
		dst[k] = v
	}
}
