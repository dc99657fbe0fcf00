package mcts

import (
	"math/rand"
	"testing"

	"spear/internal/cluster"
	"spear/internal/drl"
)

func BenchmarkSchedule30Tasks(b *testing.B) {
	g, capacity := smallRandomDAG(1, 30)
	s := New(Config{InitialBudget: 50, MinBudget: 10, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleDRLRollout measures the full Spear-shaped hot path: MCTS
// whose rollouts run the policy network through the rollout-context fast
// path (simenv.ContextPolicy), dominated by per-step inference.
func BenchmarkScheduleDRLRollout(b *testing.B) {
	g, capacity := smallRandomDAG(1, 30)
	feat := drl.Features{Window: 5, Horizon: 10, Dims: 2}
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	agent, err := drl.NewAgent(net, feat, false)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{InitialBudget: 20, MinBudget: 5, Seed: 1, Rollout: agent, Window: feat.Window})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(g, cluster.Single(capacity)); err != nil {
			b.Fatal(err)
		}
	}
}
