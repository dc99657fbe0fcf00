package main

import (
	"fmt"
	"sort"

	"spear/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (BENCHMARK.json
// "end_to_end"), the same names on every workload. An "op" is the
// workload's unit of work: one Spear schedule of a 100-task job
// (spear100), one planning call (serve-mcts), one REINFORCE epoch
// (reinforce). makespan_ratio is the schedules' mean makespan over the
// makespan lower bound of their jobs, so a speed-up that costs schedule
// quality shows. See README.md for the per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"sims_per_s", "1/s"},
	{"makespan_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json "per_layer").
// A layer that a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"nn.forward_ns", "ns"},
	{"nn.forward_batch_ns_per_row", "ns"},
	{"nn.backward_batch_ns_per_row", "ns"},
	{"nn.batch_rows", "count"},
	{"drl.policy_calls", "count"},
	{"drl.policy_busy_s", "s"},
	{"drl.expand_calls", "count"},
	{"drl.expand_busy_s", "s"},
	{"drl.encode_ns", "ns"},
	{"simenv.step_ns", "ns"},
	{"simenv.clone_ns", "ns"},
	{"simenv.legal_ns", "ns"},
	{"simenv.slot_advances", "count"},
	{"simenv.tasks_placed", "count"},
	{"simenv.env_clones", "count"},
	{"simenv.clone_reuse_ratio", "ratio"},
	{"cluster.fits_ns", "ns"},
	{"cluster.place_ns", "ns"},
	{"cluster.earliest_start_ns", "ns"},
	{"cluster.slot_reuse", "count"},
	{"cluster.slot_grow", "count"},
	{"cluster.slot_reuse_ratio", "ratio"},
	{"mcts.self_s", "s"},
	{"mcts.decisions", "count"},
	{"mcts.forced_ratio", "ratio"},
	{"mcts.iterations", "count"},
	{"mcts.expansions", "count"},
	{"mcts.rollouts", "count"},
	{"serve.plan_busy_s", "s"},
	{"serve.commit_s", "s"},
	{"serve.replans", "count"},
	{"serve.plans", "count"},
	{"serve.plan_ms_p90", "ms"},
	{"serve.jct_slots_gold", "slots"},
	{"serve.jct_slots_batch", "slots"},
	{"train.sample_s", "s"},
	{"train.backprop_s", "s"},
	{"train.apply_s", "s"},
	{"train.trajectories", "count"},
	{"train.steps", "count"},
	{"trace.overhead_frac", "frac"},
	{"ops_failed_frac", "frac"},
}

// finishResult completes a workload's result: the process-wide metrics,
// zeros for the layers the workload does not exercise, and the verdict.
func finishResult(res *result, traced bool) *result {
	if !traced {
		res.Metrics["mem_peak_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		res.Metrics["ops_failed_frac"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "frac"}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				res.Metrics[d.name] = metric{0, d.unit}
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// sameOutputs checks that the traced run produced exactly the untraced
// run's outputs: the decorators must change nothing.
func sameOutputs(plain, traced []string) error {
	if len(plain) != len(traced) {
		return fmt.Errorf("traced run made %d operations, untraced %d", len(traced), len(plain))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			return fmt.Errorf("traced run differs at operation %d: %q, untraced %q", i, traced[i], plain[i])
		}
	}
	return nil
}

// sameCounts checks that the traced run's obs counters, less the clones
// made by the state pool, equal the untraced run's.
func sameCounts(plain, traced obs.Snapshot, pool *statePool) error {
	want := counterMetrics(plain, nil)
	got := counterMetrics(traced, pool)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, g := fmt.Sprint(want[name].Value), fmt.Sprint(got[name].Value)
		if w != g {
			return fmt.Errorf("traced run counted %s = %s, untraced %s", name, g, w)
		}
	}
	return nil
}
