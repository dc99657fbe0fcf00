package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"spear/internal/obs"
)

// cellOf maps an experiment name to its cache cell. Experiments in the same
// cell share a cached intermediate result (fig6a/fig6b share the scheduler
// runs, fig7a/fig7b the budget sweep, fig9a/fig9b/fig9c the trace) and must
// run sequentially on the same Suite; distinct cells are independent and can
// run concurrently.
func cellOf(name string) string {
	switch name {
	case "fig6a", "fig6b":
		return "fig6"
	case "fig7a", "fig7b":
		return "fig7"
	case "fig9a", "fig9b", "fig9c":
		return "fig9"
	default:
		return name
	}
}

// needsModel reports whether an experiment schedules with the trained policy
// network (directly or through Spear). Cells without it skip training.
func needsModel(name string) bool {
	switch name {
	case "fig7a", "fig7b", "table1", "fig9a", "fig9b":
		return false
	default:
		return true
	}
}

// ParallelOptions configures RunParallel.
type ParallelOptions struct {
	// Jobs bounds the number of experiment cells in flight. Values below 1
	// mean 1 (sequential, but still through the cell machinery).
	Jobs int
	// CSV, when non-nil, opens the machine-readable sink for one experiment;
	// RunParallel writes the experiment's CSV into it and closes it.
	CSV func(name string) (io.WriteCloser, error)
}

// parallelCell is one unit of concurrent work: the experiments of a cache
// cell, in requested order, run against a private shadow Suite.
type parallelCell struct {
	names  []string
	bufs   []*bytes.Buffer
	errs   []error
	shadow *Suite
}

// shadowSuite clones the suite for one cell: the trained network, the
// learning curve and all scalar settings are shared (they are read-only
// during experiments), while the result caches and the metrics registry are
// private so concurrent cells never write to the same state. Log output is
// redirected per cell to keep progress lines attributable.
func (s *Suite) shadowSuite(log io.Writer) *Suite {
	shadow := &Suite{
		Seed:            s.Seed,
		Full:            s.Full,
		Feat:            s.Feat,
		Net:             s.Net,
		ModelCfg:        s.ModelCfg,
		Log:             log,
		TreeParallelism: s.TreeParallelism,
		curve:           s.curve,
	}
	if s.Obs != nil {
		shadow.Obs = obs.NewRegistry()
	}
	return shadow
}

// RunParallel executes the named experiments with independent cache cells on
// a bounded worker pool. The trained model is shared: if any requested
// experiment needs it, it is trained once up front on the parent suite.
// Every cell gets a private shadow Suite (own caches, own obs registry), so
// cells never contend on shared mutable state; each experiment's report is
// buffered and printed to w in the requested order once everything finishes.
//
// The returned snapshot merges the parent registry with every cell's private
// registry (counters sum, gauges keep their maximum); it is nil when the
// suite has no Obs registry. The error aggregates every cell failure.
func (s *Suite) RunParallel(names []string, opt ParallelOptions, w io.Writer) (obs.Snapshot, error) {
	jobs := opt.Jobs
	if jobs < 1 {
		jobs = 1
	}
	registry := Registry()
	runners := make(map[string]Runner, len(registry))
	for _, r := range registry {
		runners[r.Name] = r
	}
	for _, name := range names {
		if _, ok := runners[name]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", name)
		}
	}

	// Train once up front so every cell shares one network (and the exact
	// model a sequential run would use, keeping outputs comparable).
	for _, name := range names {
		if needsModel(name) {
			if _, err := s.TrainModel(); err != nil {
				return nil, err
			}
			break
		}
	}

	// Group the requested experiments into cells, preserving request order
	// both across cells and within each cell.
	var cells []*parallelCell
	byCell := make(map[string]*parallelCell)
	output := make(map[string]*bytes.Buffer, len(names))
	for _, name := range names {
		if _, dup := output[name]; dup {
			continue
		}
		key := cellOf(name)
		c := byCell[key]
		if c == nil {
			c = &parallelCell{shadow: s.shadowSuite(s.Log)}
			byCell[key] = c
			cells = append(cells, c)
		}
		buf := &bytes.Buffer{}
		c.names = append(c.names, name)
		c.bufs = append(c.bufs, buf)
		c.errs = append(c.errs, nil)
		output[name] = buf
	}

	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func(c *parallelCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for i, name := range c.names {
				r := runners[name]
				if err := r.Run(c.shadow, c.bufs[i]); err != nil {
					c.errs[i] = fmt.Errorf("%s: %w", name, err)
					continue
				}
				if opt.CSV == nil || r.CSV == nil {
					continue
				}
				f, err := opt.CSV(name)
				if err != nil {
					c.errs[i] = fmt.Errorf("%s csv: %w", name, err)
					continue
				}
				if err := r.CSV(c.shadow, f); err != nil {
					c.errs[i] = errors.Join(fmt.Errorf("%s csv: %w", name, err), f.Close())
					continue
				}
				if err := f.Close(); err != nil {
					c.errs[i] = fmt.Errorf("%s csv: %w", name, err)
				}
			}
		}(c)
	}
	wg.Wait()

	var errs []error
	for _, c := range cells {
		for _, err := range c.errs {
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if len(names) > 1 {
			fmt.Fprintf(w, "==== %s ====\n", name)
		}
		if _, err := io.Copy(w, output[name]); err != nil {
			return nil, err
		}
		if len(names) > 1 {
			fmt.Fprintln(w)
		}
	}

	var merged obs.Snapshot
	if s.Obs != nil {
		snaps := []obs.Snapshot{s.Obs.Snapshot()}
		for _, c := range cells {
			snaps = append(snaps, c.shadow.Obs.Snapshot())
		}
		merged = obs.MergeSnapshots(snaps...)
	}
	return merged, errors.Join(errs...)
}
