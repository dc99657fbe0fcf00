package drl

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spear/internal/nn"
	"spear/internal/simenv"
	"spear/internal/workload"
)

func benchEnv(b *testing.B, feat Features) *simenv.Env {
	b.Helper()
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 50
	g, err := workload.RandomDAG(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := simenv.New(g, cfg.Capacity(), simenv.Config{Window: feat.Window, Mode: simenv.OneSlot})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkEncode(b *testing.B) {
	feat := DefaultFeatures()
	e := benchEnv(b, feat)
	buf := make([]float64, feat.InputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = feat.Encode(e, buf)
	}
}

func BenchmarkAgentChoose(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	e := benchEnv(b, feat)
	legal := e.LegalActions()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Choose(e, legal, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentChooseCtx(b *testing.B) {
	feat := DefaultFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	e := benchEnv(b, feat)
	legal := e.LegalActions()
	rng := rand.New(rand.NewSource(3))
	ctx := agent.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.ChooseCtx(ctx, e, legal, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// rolloutStates loads the shipped policy and returns it with the encoded
// state of every decision of one sampled rollout of a 100-task DAG, the
// inputs the network sees in a Spear search.
func rolloutStates(b *testing.B) (*nn.Network, [][]float64) {
	b.Helper()
	f, err := os.Open(filepath.Join("..", "..", "models", "policy.gob"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	feat := DefaultFeatures()
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultRandomDAGConfig()
	cfg.NumTasks = 100
	g, err := workload.RandomDAG(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := simenv.New(g, cfg.Capacity(), simenv.Config{Window: feat.Window})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var states [][]float64
	for !e.Done() {
		states = append(states, feat.Encode(e, nil))
		a, err := agent.Choose(e, e.LegalActions(), rng)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Step(a); err != nil {
			b.Fatal(err)
		}
	}
	return net, states
}

// BenchmarkForwardRolloutStates runs the one-row forward pass over the
// states of a real rollout in turn. Unlike nn's BenchmarkForwardInto, whose
// random input has no zeros, these inputs are mostly empty occupancy and
// window slots, so this is the benchmark that shows the zero-skipping
// kernel. It reports the inputs' zero fraction as zero-frac.
func BenchmarkForwardRolloutStates(b *testing.B) {
	net, states := rolloutStates(b)
	var zeros, total int
	for _, x := range states {
		for _, v := range x {
			if v == 0 {
				zeros++
			}
		}
		total += len(x)
	}
	s := net.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ForwardInto(s, states[i%len(states)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(zeros)/float64(total), "zero-frac")
}
