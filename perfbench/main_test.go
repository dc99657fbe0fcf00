package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/baselines"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/sched"
	"spear/internal/simenv"
)

// runTiny runs the benchmark at self-test sizes and returns the exit code
// and the parsed result line (nil when none was printed).
func runTiny(t *testing.T, args ...string) (int, *result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-tiny", "-seconds", "0", "-seed", "3"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if last == "" {
		return code, nil
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v (stderr %s)", args, last, err, stderr.String())
	}
	return code, &res
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, d.name, m.Unit, d.unit)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and
// traced: each must pass its own output checks (the traced run also checks
// that its outputs and counts equal the untraced run's) and print every
// metric with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, res := runTiny(t, "-workload", name, "-trace", trace)
			label := name + " trace " + trace
			if code != 0 || res == nil {
				t.Fatalf("%s: exit %d, result %v", label, code, res)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct %v, %d of %d failed", label, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			checkMetrics(t, label, res.Metrics, want)
		}
	}
}

// TestWorkloadSplit pins the counts that show which layers own each
// workload.
func TestWorkloadSplit(t *testing.T) {
	value := func(name string) map[string]float64 {
		code, res := runTiny(t, "-workload", name, "-trace", "1")
		if code != 0 || res == nil {
			t.Fatalf("%s: exit %d", name, code)
		}
		out := map[string]float64{}
		for k, m := range res.Metrics {
			out[k] = m.Value
		}
		return out
	}
	sp := value("spear100")
	if sp["nn.batch_rows"] != 0 || sp["drl.policy_calls"] <= 0 || sp["mcts.rollouts"] <= 0 {
		t.Errorf("spear100: batch rows %v, policy calls %v, rollouts %v", sp["nn.batch_rows"], sp["drl.policy_calls"], sp["mcts.rollouts"])
	}
	sv := value("serve-mcts")
	if sv["drl.policy_calls"] != 0 || sv["nn.batch_rows"] != 0 || sv["serve.replans"] <= 0 || sv["cluster.fits_ns"] <= 0 {
		t.Errorf("serve-mcts: policy calls %v, batch rows %v, replans %v, fits %v",
			sv["drl.policy_calls"], sv["nn.batch_rows"], sv["serve.replans"], sv["cluster.fits_ns"])
	}
	rl := value("reinforce")
	if rl["train.trajectories"] <= 0 || rl["mcts.rollouts"] != 0 || rl["nn.backward_batch_ns_per_row"] <= 0 {
		t.Errorf("reinforce: trajectories %v, rollouts %v, backward %v", rl["train.trajectories"], rl["mcts.rollouts"], rl["nn.backward_batch_ns_per_row"])
	}
}

// TestFaultInjectionFails corrupts one schedule: the output checks must
// count it and the command must exit non-zero.
func TestFaultInjectionFails(t *testing.T) {
	for _, name := range []string{"spear100", "serve-mcts"} {
		code, res := runTiny(t, "-workload", name, "-trace", "1", "-fault-every", "2")
		if code == 0 {
			t.Errorf("%s: exit 0 with an invalid schedule", name)
		}
		if res == nil {
			t.Fatalf("%s: no result printed", name)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["ops_failed_frac"].Value <= 0 {
			t.Errorf("%s: correct %v, failed %d, ops_failed_frac %v", name, res.Correct, res.Failed, res.Metrics["ops_failed_frac"].Value)
		}
	}
}

// Policies with each combination of the optional interfaces.
type (
	plainPolicy struct{ baselines.Random }
	ctxPolicy   struct{ baselines.Random }
	batchPolicy struct{ baselines.Random }
)

func (ctxPolicy) NewContext() simenv.PolicyContext { return nil }

func (p ctxPolicy) ChooseCtx(_ simenv.PolicyContext, e *simenv.Env, legal []simenv.Action, rng *rand.Rand) (simenv.Action, error) {
	return p.Choose(e, legal, rng)
}

func (batchPolicy) NewBatchContext(int) simenv.BatchPolicyContext { return nil }

func (batchPolicy) ChooseBatch(simenv.BatchPolicyContext, []*simenv.Env, [][]simenv.Action, []*rand.Rand, []simenv.Action) error {
	return nil
}

// TestDecoratorsKeepInterfaces asserts every decorator exposes exactly the
// optional interfaces of what it wraps.
func TestDecoratorsKeepInterfaces(t *testing.T) {
	feat := drl.DefaultFeatures()
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := drl.NewAgent(net, feat, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []simenv.Policy{agent, baselines.Random{}, plainPolicy{}, ctxPolicy{}, batchPolicy{}} {
		w := wrapPolicy(p, &accumulator{}, &statePool{})
		_, innerCtx := p.(simenv.ContextPolicy)
		_, innerBatch := p.(simenv.BatchPolicy)
		_, wrapCtx := w.(simenv.ContextPolicy)
		_, wrapBatch := w.(simenv.BatchPolicy)
		if innerCtx != wrapCtx || innerBatch != wrapBatch {
			t.Errorf("%T: wrapped ContextPolicy %v BatchPolicy %v, inner %v %v", p, wrapCtx, wrapBatch, innerCtx, innerBatch)
		}
	}
	for _, s := range []sched.Scheduler{mcts.New(mcts.Config{}), baselines.NewCPScheduler()} {
		w := wrapScheduler(s, &planRecorder{})
		_, inner := s.(sched.ContextScheduler)
		_, wrapped := w.(sched.ContextScheduler)
		if inner != wrapped {
			t.Errorf("%T: wrapped ContextScheduler %v, inner %v", s, wrapped, inner)
		}
	}
}

// TestProfilesAndSpansWritten checks the profiling flags and the span
// dump of a traced run: every span is closed and its parent precedes it.
func TestProfilesAndSpansWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, spans := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "spans.json")
	code, _ := runTiny(t, "-workload", "serve-mcts", "-trace", "1", "-cpuprofile", cpu, "-memprofile", mem, "-spans", spans)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range got {
		names[s.Name]++
		if s.EndNS < s.StartNS || s.Parent >= s.ID || s.Run == "" {
			t.Errorf("malformed span %+v", s)
		}
	}
	if names["serve.run"] == 0 || names["plan"] == 0 {
		t.Errorf("span names %v, want serve.run and plan spans", names)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark definition at the root of the repository in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(def.Workloads), len(workloads))
	}
	same := func(label string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command reports %d", label, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}
