package workload

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spear/internal/dag"
)

// FuzzLoadJob feeds arbitrary documents to LoadJob: it must never panic,
// and any job it accepts must survive SaveJob -> LoadJob as an equal graph
// (same name, tasks, runtimes, demands and edges).
func FuzzLoadJob(f *testing.F) {
	cfg := DefaultRandomDAGConfig()
	cfg.NumTasks = 6
	g, err := RandomDAG(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := SaveJob(&saved, g, "seed"); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.String())
	f.Add(`{"name":"etl","dims":2,"tasks":[{"name":"a","runtime":3,"demand":[1,2]},{"name":"b","runtime":5,"demand":[4,3]}],"edges":[[0,1],[0,1]]}`)
	f.Add(`{"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]}],"edges":[[0,5]]}`)
	f.Add(`{"name":"x","dims":-1,"tasks":[{"name":"a","runtime":1,"demand":[]}]}`)
	f.Add(`{"format":2,"name":"x","dims":1,"tasks":[{"name":"a","runtime":1,"demand":[1]}]}`)
	f.Add(`nope`)

	f.Fuzz(func(t *testing.T, doc string) {
		g, name, err := LoadJob(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveJob(&buf, g, name); err != nil {
			t.Fatalf("SaveJob of an accepted job: %v", err)
		}
		back, backName, err := LoadJob(&buf)
		if err != nil {
			t.Fatalf("reloading a saved job: %v\n%s", err, buf.String())
		}
		if backName != name {
			t.Fatalf("name %q became %q", name, backName)
		}
		if back.NumTasks() != g.NumTasks() || back.Dims() != g.Dims() {
			t.Fatalf("shape %dx%d became %dx%d", g.NumTasks(), g.Dims(), back.NumTasks(), back.Dims())
		}
		for id := dag.TaskID(0); int(id) < g.NumTasks(); id++ {
			a, b := g.Task(id), back.Task(id)
			if a.Name != b.Name || a.Runtime != b.Runtime || !a.Demand.Equal(b.Demand) {
				t.Fatalf("task %d: %+v became %+v", id, a, b)
			}
			if !slices.Equal(g.Succ(id), back.Succ(id)) {
				t.Fatalf("task %d successors %v became %v", id, g.Succ(id), back.Succ(id))
			}
		}
	})
}
