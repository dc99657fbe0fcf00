package workload

import (
	"bytes"
	"math/rand"
	"reflect"
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

// FuzzLoadTrace feeds arbitrary documents to LoadTrace. It must never
// panic, any trace it accepts must survive Save→LoadTrace as an equal
// trace, and converting it to graphs must not panic either.
func FuzzLoadTrace(f *testing.F) {
	cfg := DefaultTraceConfig()
	cfg.Jobs, cfg.MinTasks = 1, 1
	cfg.MaxMaps, cfg.MaxReduces, cfg.MedianMaps, cfg.MedianReds = 2, 2, 1, 1
	trace, err := GenerateTrace(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := trace.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.String())
	f.Add(`{"capacity":[10,10],"jobs":[{"name":"j","tasks":[{"name":"m","stage":"map","runtimeSecs":3,"demand":[1,2]},{"name":"r","stage":"reduce","runtimeSecs":2,"demand":[3,1]}]}]}`)
	f.Add(`{"format":1,"capacity":[5],"jobs":[{"name":"j","tasks":[]}]}`)
	f.Add(`{"format":2,"capacity":[5],"jobs":[{"name":"j","tasks":null}]}`)
	f.Add(`{"capacity":[0],"jobs":[{"name":"j","tasks":[{"name":"m","stage":"shuffle","runtimeSecs":0,"demand":[]}]}]}`)
	f.Add(`nope`)

	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := LoadTrace(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("Save of an accepted trace: %v", err)
		}
		back, err := LoadTrace(&buf)
		if err != nil {
			t.Fatalf("reloading a saved trace: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("Save→LoadTrace changed the trace:\n%+v\n---\n%+v", tr, back)
		}
		// Only a panic is a failure here: an accepted trace may still be
		// refused by the DAG builder, for example a job with no tasks.
		_, _ = tr.Graphs()
	})
}
