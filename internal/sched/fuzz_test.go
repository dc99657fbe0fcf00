package sched

import (
	"bytes"
	"encoding/json"
	"testing"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// FuzzLoadSchedule feeds arbitrary documents to LoadSchedule. It must never
// panic, and any schedule it accepts must survive StartTimes, Machines and
// Validate against a fixed three-task graph on a two-machine cluster
// without panicking, whatever its task ids, starts, machines and makespan.
func FuzzLoadSchedule(f *testing.F) {
	b := dag.NewBuilder(2)
	a := b.AddTask("a", 2, resource.Of(2, 1))
	c := b.AddTask("b", 3, resource.Of(1, 2))
	d := b.AddTask("c", 1, resource.Of(2, 2))
	b.AddDep(a, d)
	b.AddDep(c, d)
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	spec := cluster.Uniform(2, resource.Of(2, 2))

	valid := &Schedule{
		Format:     FormatMulti,
		Algorithm:  "hand",
		Placements: []Placement{{Task: a, Start: 0}, {Task: c, Start: 0, Machine: 1}, {Task: d, Start: 3}},
		Makespan:   4,
	}
	if err := Validate(g, spec, valid); err != nil {
		f.Fatalf("seed schedule: %v", err)
	}
	data, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"algorithm":"x","placements":[{"task":0,"start":0},{"task":1,"start":2},{"task":2,"start":5}],"makespan":6}`))
	f.Add([]byte(`{"placements":[{"task":0,"start":0},{"task":1,"start":4000000000000000000},{"task":2,"start":4000000000000000003}],"makespan":4000000000000000004}`))
	f.Add([]byte(`{"placements":[{"task":-1,"start":-5,"machine":-2}],"makespan":-1}`))
	f.Add([]byte(`{"format":3}`))
	f.Add([]byte(`nope`))

	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := LoadSchedule(bytes.NewReader(doc))
		if err != nil {
			return
		}
		n := g.NumTasks()
		if got := len(s.StartTimes(n)); got != n {
			t.Fatalf("StartTimes(%d) has %d entries", n, got)
		}
		if got := len(s.Machines(n)); got != n {
			t.Fatalf("Machines(%d) has %d entries", n, got)
		}
		if err := Validate(g, spec, s); err != nil {
			return
		}
		// A valid schedule places every task once, on a named machine,
		// and its makespan is the latest finish.
		starts, machines := s.StartTimes(n), s.Machines(n)
		var makespan int64
		for id := 0; id < n; id++ {
			if starts[id] < 0 || machines[id] < 0 || machines[id] >= len(spec) {
				t.Fatalf("valid schedule has task %d at %d on machine %d", id, starts[id], machines[id])
			}
			makespan = max(makespan, starts[id]+g.Task(dag.TaskID(id)).Runtime)
		}
		if makespan != s.Makespan {
			t.Fatalf("valid schedule records makespan %d, placements give %d", s.Makespan, makespan)
		}
	})
}
