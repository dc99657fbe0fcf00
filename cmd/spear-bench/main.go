// Command spear-bench runs the repository's performance trajectory suite —
// the hot paths whose regressions matter: single-row and batched network
// inference, batched REINFORCE backprop, and the MCTS decision loop at
// several tree-parallelism degrees plus a 4-machine cluster cell
// — and writes the results as one JSON document (BENCH_spear.json at the
// repo root) so successive commits can be compared.
//
// With -compare the run becomes a regression gate: every sims/sec row of
// the baseline report must reach at least -tolerance times its baseline
// rate or the command exits non-zero (how CI fails on search slowdowns).
//
// Usage:
//
//	spear-bench                      # full sizes, writes BENCH_spear.json
//	spear-bench -quick -out bench.json
//	spear-bench -quick -out bench.json -compare BENCH_spear.json -tolerance 0.85
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"spear/internal/cluster"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/workload"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimsPerSec is the rollout throughput for search benchmarks (zero
	// elsewhere) — the metric the tree-parallel acceptance target is
	// phrased in.
	SimsPerSec float64 `json:"sims_per_sec,omitempty"`
	// RowsPerSec is the row throughput for batched-inference benchmarks.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// Report is the whole run, with enough machine context to make cross-commit
// comparisons honest.
type Report struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Quick      bool      `json:"quick"`
	Timestamp  time.Time `json:"timestamp"`
	Results    []Result  `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spear-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_spear.json", "path to write the JSON report")
		quick     = flag.Bool("quick", false, "shrink problem sizes for a smoke run (CI)")
		compareTo = flag.String("compare", "", "baseline report to gate against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.85, "minimum current/baseline sims-per-sec ratio accepted by -compare")
	)
	flag.Parse()

	feat := drl.Features{Window: 5, Horizon: 10, Dims: 2}
	net, err := drl.DefaultNetwork(feat, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	agent, err := drl.NewAgent(net, feat, false)
	if err != nil {
		return err
	}

	tasks, budget, minBudget := 30, 40, 10
	batchRows := 16
	if *quick {
		tasks, budget, minBudget = 15, 10, 5
		batchRows = 8
	}
	g, err := workload.RandomBatch(rand.New(rand.NewSource(1)), workload.RandomDAGConfig{
		NumTasks: tasks, MinWidth: 2, MaxWidth: 5, Dims: 2,
		MaxRuntime: 20, MaxDemand: 20, MaxParents: 3,
	}, 1)
	if err != nil {
		return err
	}
	graph := g[0]
	capacity := workload.DefaultRandomDAGConfig().Capacity()

	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Timestamp:  time.Now().UTC(),
	}

	// Single-row inference: the per-step cost of every rollout action.
	{
		scratch := net.NewScratch()
		in := net.InputSize()
		x := make([]float64, in)
		for i := range x {
			x[i] = float64(i%7) * 0.1
		}
		report.Results = append(report.Results, measure("nn_forward_single", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardInto(scratch, x); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Batched inference: the lock-step rollout fast path.
	{
		scratch := net.NewScratch()
		in := net.InputSize()
		x := make([]float64, batchRows*in)
		for i := range x {
			x[i] = float64(i%11) * 0.05
		}
		report.Results = append(report.Results, measure("nn_forward_batch", batchRows, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardBatchInto(scratch, x, batchRows); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Batched backprop: the REINFORCE gradient chunk.
	{
		scratch := net.NewScratch()
		in, out := net.InputSize(), net.OutputSize()
		x := make([]float64, batchRows*in)
		d := make([]float64, batchRows*out)
		for i := range x {
			x[i] = float64(i%11) * 0.05
		}
		for i := range d {
			d[i] = float64(i%5-2) * 0.01
		}
		grads := net.NewGrads()
		report.Results = append(report.Results, measure("nn_backward_batch", batchRows, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardBatchInto(scratch, x, batchRows); err != nil {
					b.Fatal(err)
				}
				if err := net.BackwardBatchInto(scratch, d, batchRows, grads); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// searchCell benchmarks one scheduler configuration's full decision
	// loop and reports its rollout throughput.
	searchCell := func(name string, spec cluster.Spec, cfg mcts.Config) {
		s := mcts.New(cfg)
		var rollouts int64
		var elapsed float64
		r := measure(name, 0, func(b *testing.B) {
			rollouts, elapsed = 0, 0
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(graph, spec); err != nil {
					b.Fatal(err)
				}
				st := s.LastStats()
				rollouts += st.Rollouts
				elapsed += st.Elapsed.Seconds()
			}
		})
		if elapsed > 0 {
			r.SimsPerSec = float64(rollouts) / elapsed
		}
		report.Results = append(report.Results, r)
	}

	// The MCTS decision loop with DRL rollouts at increasing tree
	// parallelism: J workers sharing one arena-allocated tree. SimsPerSec
	// here is the acceptance metric: the J=4 row should reach >=2x the J=1
	// rate on a >=4-core machine.
	for _, j := range []int{1, 2, 4} {
		searchCell(fmt.Sprintf("mcts_schedule_tree_j%d", j), cluster.Single(capacity), mcts.Config{
			InitialBudget: budget, MinBudget: minBudget, Seed: 1,
			Rollout: agent, Window: feat.Window,
			TreeParallelism: j,
		})
	}

	// The transposition table on the serial tree: pooling statistics across
	// schedule orders costs one hash lookup per node creation.
	searchCell("mcts_schedule_tt", cluster.Single(capacity), mcts.Config{
		InitialBudget: budget, MinBudget: minBudget, Seed: 1,
		Rollout: agent, Window: feat.Window,
		UseTranspositions: true,
	})

	// The multi-machine hot path: the same search over a 4-machine uniform
	// cluster, whose slot|machine action space multiplies the branching
	// factor.
	searchCell("mcts_schedule_multi_m4", cluster.Uniform(4, capacity), mcts.Config{
		InitialBudget: budget, MinBudget: minBudget, Seed: 1,
		Rollout: agent, Window: feat.Window,
	})

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}

	for _, r := range report.Results {
		fmt.Printf("%-28s %12.0f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.SimsPerSec > 0 {
			fmt.Printf(" %10.0f sims/s", r.SimsPerSec)
		}
		if r.RowsPerSec > 0 {
			fmt.Printf(" %10.0f rows/s", r.RowsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("report written to %s\n", *out)

	if *compareTo != "" {
		if err := compare(*compareTo, report, *tolerance); err != nil {
			return err
		}
	}
	return nil
}

// compare gates the current report against a baseline: every baseline row
// with a sims/sec rate must be present and reach at least tolerance times
// its baseline rate. A missing row fails too — silently dropping a cell
// from the suite must not read as "no regression".
func compare(baselinePath string, current Report, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("compare baseline %s: %w", baselinePath, err)
	}
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	var failures []string
	fmt.Printf("comparing against %s (tolerance %.2f):\n", baselinePath, tolerance)
	for _, b := range base.Results {
		if b.SimsPerSec <= 0 {
			continue
		}
		c, ok := cur[b.Name]
		if !ok {
			fmt.Printf("  %-28s baseline %10.0f sims/s          MISSING\n", b.Name, b.SimsPerSec)
			failures = append(failures, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		ratio := c.SimsPerSec / b.SimsPerSec
		status := "ok"
		if ratio < tolerance {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f sims/s is %.2fx the baseline %.0f (floor %.2fx)",
				b.Name, c.SimsPerSec, ratio, b.SimsPerSec, tolerance))
		}
		fmt.Printf("  %-28s baseline %10.0f sims/s  current %10.0f (%.2fx) %s\n",
			b.Name, b.SimsPerSec, c.SimsPerSec, ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("sims/sec regression gate: %d row(s) failed:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("regression gate passed")
	return nil
}

// measure runs one benchmark body through the standard library's timing
// machinery and converts the result. rows > 0 derives RowsPerSec for batch
// kernels.
func measure(name string, rows int, body func(b *testing.B)) Result {
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	r := Result{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.NsPerOp()),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if rows > 0 && br.NsPerOp() > 0 {
		r.RowsPerSec = float64(rows) / (float64(br.NsPerOp()) * 1e-9)
	}
	return r
}
