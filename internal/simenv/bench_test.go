package simenv

import (
	"math/rand"
	"testing"

	"spear/internal/dag"
	"spear/internal/resource"
)

func benchGraph(b *testing.B, n int) *dag.Graph {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	builder := dag.NewBuilder(2)
	ids := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = builder.AddTask("t", r.Int63n(15)+1, resource.Of(r.Int63n(8)+1, r.Int63n(8)+1))
	}
	for i := 1; i < n; i++ {
		for k := 0; k < r.Intn(3); k++ {
			builder.AddDep(ids[r.Intn(i)], ids[i])
		}
	}
	g, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEnvClone(b *testing.B) {
	g := benchGraph(b, 100)
	e, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Advance mid-episode so the clone carries real state.
	for i := 0; i < 30 && !e.Done(); i++ {
		if err := e.Step(e.LegalActions()[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Clone()
	}
}

func BenchmarkRolloutRandomCtx(b *testing.B) {
	g := benchGraph(b, 100)
	base, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	rc := NewRolloutContext(randomPolicy{})
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.RolloutFrom(base, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLegalActions(b *testing.B) {
	g := benchGraph(b, 100)
	e, err := New(g, resource.Of(20, 20), Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20 && !e.Done(); i++ {
		if err := e.Step(e.LegalActions()[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.LegalActions()
	}
}
