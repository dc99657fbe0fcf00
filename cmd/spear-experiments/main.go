// Command spear-experiments regenerates the tables and figures of the
// paper's evaluation section (§V). Each experiment prints the same
// rows/series the paper reports; see DESIGN.md for the experiment index.
//
// Usage:
//
//	spear-experiments -list
//	spear-experiments -run fig6a
//	spear-experiments -run all -full -model model.gob
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spear"
	"spear/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spear-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runName   = flag.String("run", "all", "experiment to run (or 'all')")
		list      = flag.Bool("list", false, "list experiments and exit")
		full      = flag.Bool("full", false, "use paper-scale parameters (slow)")
		seed      = flag.Int64("seed", 1, "random seed")
		modelPath = flag.String("model", "", "trained model (trains one on demand when empty)")
		verbose   = flag.Bool("v", false, "log per-job progress")
		csvDir    = flag.String("csv-dir", "", "also write each experiment's raw data as CSV into this directory")
		metrics   = flag.Bool("metrics", false, "print a Prometheus-format metrics snapshot after the run")
		jobs      = flag.Int("j", 1, "run independent experiment cells on this many workers (reports still print in paper order)")
		treePar   = flag.Int("tree-parallel", 1, "shared-tree MCTS workers in every search-based scheduler")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.Name, r.Description)
		}
		return nil
	}

	suite := experiments.NewSuite(*seed)
	suite.Full = *full
	suite.TreeParallelism = *treePar
	if *verbose {
		suite.Log = os.Stderr
	}
	if *metrics {
		// One shared registry: every scheduler the suite builds aggregates
		// into it, and the snapshot below covers the whole run.
		suite.Obs = spear.NewMetricsRegistry()
	}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		net, err := spear.LoadModel(f)
		f.Close() //spear:ignoreerr(read-only close after a completed load)
		if err != nil {
			return err
		}
		feat := spear.DefaultFeatures()
		if net.InputSize() != feat.InputSize() {
			return fmt.Errorf("model %s does not match the default featurization", *modelPath)
		}
		suite.Net = net
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	runOne := func(r experiments.Runner) error {
		if err := r.Run(suite, os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if *csvDir == "" || r.CSV == nil {
			return nil
		}
		path := filepath.Join(*csvDir, r.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := r.CSV(suite, f); err != nil {
			return errors.Join(fmt.Errorf("%s csv: %w", r.Name, err), f.Close())
		}
		return f.Close()
	}

	dumpMetrics := func() {
		if suite.Obs == nil {
			return
		}
		fmt.Println("==== metrics ====")
		if err := suite.Obs.Snapshot().WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "spear-experiments: metrics:", err)
		}
	}

	if *jobs > 1 {
		names := experiments.Names()
		if *runName != "all" {
			names = []string{*runName}
		}
		opt := experiments.ParallelOptions{Jobs: *jobs}
		if *csvDir != "" {
			opt.CSV = func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(*csvDir, name+".csv"))
			}
		}
		snap, err := suite.RunParallel(names, opt, os.Stdout)
		if err != nil {
			return err
		}
		if *metrics {
			fmt.Println("==== metrics ====")
			return snap.WritePrometheus(os.Stdout)
		}
		return nil
	}

	if *runName != "all" {
		for _, r := range experiments.Registry() {
			if r.Name == *runName {
				if err := runOne(r); err != nil {
					return err
				}
				dumpMetrics()
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q", *runName)
	}
	for _, r := range experiments.Registry() {
		fmt.Printf("==== %s ====\n", r.Name)
		if err := runOne(r); err != nil {
			return err
		}
		fmt.Println()
	}
	dumpMetrics()
	return nil
}
