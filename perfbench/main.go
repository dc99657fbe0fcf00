// Command perfbench is the repository's end-to-end benchmark. One process
// runs one seeded workload, checks every output it produces, and prints one
// JSON result line with the workload's metrics:
//
//	perfbench --workload spear100 --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen and which layer owns it):
//
//	spear100    Spear (DRL-guided MCTS) schedules paper-size 100-task DAGs
//	serve-mcts  the online serving loop planning with pure MCTS on 4 machines
//	reinforce   REINFORCE epochs on 8 random 25-task jobs
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// tracing. With --trace 1 the same work runs twice, untraced and then traced
// (decorators around the calls into each layer, sampled states, obs
// counters), the two runs' outputs must agree, and the result holds the
// per-layer metrics. -cpuprofile and -memprofile write pprof profiles whose
// samples carry a "workload" label.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation of the benchmark.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	tiny       bool
	faultEvery int
	spans      string
	// labels carries the workload's pprof labels; phase adds to them.
	labels context.Context
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadFunc runs one workload and returns its result. Output-check
// failures are counted in the result; a returned error means the workload
// could not run at all.
type workloadFunc func(o options, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"spear100":   runSpear100,
	"serve-mcts": runServe,
	"reinforce":  runReinforce,
}

// run parses args, runs the workload and prints its result. It returns the
// process exit code: 0 only when every operation succeeded and every output
// check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o          options
		trace      int
		cpuProfile string
		memProfile string
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: spear100, serve-mcts or reinforce")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds (each workload also runs a fixed minimum of operations)")
	fs.IntVar(&trace, "trace", 0, "1 = also run traced and print per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every size (self-test)")
	fs.IntVar(&o.faultEvery, "fault-every", 0, "corrupt every n-th schedule to exercise the output checks (self-test)")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want spear100, serve-mcts or reinforce)\n", o.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}

	res, err := runProfiled(o, fn, cpuProfile, memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runProfiled runs the workload under the requested profiles, with every
// sample labelled by the workload name.
func runProfiled(o options, fn workloadFunc, cpuProfile, memProfile string) (res *result, err error) {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pprof.Do(context.Background(), pprof.Labels("workload", o.workload), func(ctx context.Context) {
		o.labels = ctx
		res, err = fn(o, tr)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil && o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	if memProfile != "" {
		if err := writeHeapProfile(memProfile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// phase runs f with a "phase" pprof label added to the workload's labels,
// so a profile can be cut to set-up, the measured run, the traced run or
// the layer timings (go tool pprof -tagfocus phase=measure).
func (o options) phase(name string, f func()) {
	ctx := o.labels
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("phase", name), func(context.Context) { f() })
}

// deadline reports whether a measured loop that began at start has run for
// the requested seconds.
func (o options) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= o.seconds
}
