// Command ppsim runs a population protocol — natively or through one of the
// paper's simulators — under a chosen interaction model and omission
// adversary, and prints progress, the final configuration, and the
// simulation-verification verdict.
//
// Examples:
//
//	ppsim -protocol majority -n 16                          # native TW
//	ppsim -protocol pairing -sim skno -o 2 -model I3 \
//	      -omission-rate 0.05 -omission-budget 2            # Theorem 4.1
//	ppsim -protocol leader -sim sid -model IO -n 8          # Theorem 4.5
//	ppsim -protocol majority -sim naming -model IO -n 8     # Theorem 4.6
//	ppsim -protocol majority -n 1000 -runs 50               # seed ensemble
//	ppsim -protocol majority -n 1000000 -counts             # O(|Q|) counts backend
//	ppsim -protocol majority -n 100000000 -counts \
//	      -batch on -shards 4                               # batch dynamics, hybrid
//	ppsim -protocol or -topology cycle -n 256               # graphical: cycle topology
//	ppsim -spec scenario.json                               # declarative spec
//
// The workload registry (protocol + standard initial configuration +
// convergence predicate) lives in internal/serve and is shared with the
// popsimd job server, so `-spec scenario.json` here and POST /jobs there
// mean exactly the same run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"popsim"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/report"
	"popsim/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	protoName := fs.String("protocol", "majority", "workload: "+serve.WorkloadNames())
	simName := fs.String("sim", "", "simulator: skno|sid|naming (empty = run natively)")
	modelName := fs.String("model", "TW", "interaction model: TW|T1|T2|T3|IT|IO|I1|I2|I3|I4")
	topoName := fs.String("topology", "", "interaction topology: complete|cycle|grid|cliques[:k]|regular[:d]|powerlaw[:m] (empty = complete graph, the classical scheduler)")
	n := fs.Int("n", 8, "population size")
	o := fs.Int("o", 1, "omission bound for skno")
	seed := fs.Int64("seed", 1, "random seed")
	horizon := fs.Int("horizon", 2_000_000, "max scheduled interactions")
	omRate := fs.Float64("omission-rate", 0, "adversary omission rate per scheduled interaction")
	omBudget := fs.Int("omission-budget", -1, "adversary omission budget (-1 = unbounded)")
	shards := fs.Int("shards", 0, "with -counts: run the counts hybrid on P workers (multi-core, no adversary)")
	runs := fs.Int("runs", 0, "run an ensemble of this many seeds (seed, seed+1, …) and print aggregates")
	workers := fs.Int("workers", 0, "ensemble worker pool bound (0 = GOMAXPROCS)")
	counts := fs.Bool("counts", false, "run with a count predicate (O(|Q|) observation; large populations execute on the counts backend, no adversary)")
	batch := fs.String("batch", "auto", "counts-backend batch tier: auto|on|off (collision-aware aggregate dynamics; auto = on at n ≥ 2²²)")
	specPath := fs.String("spec", "", "run a declarative JSON scenario spec (the popsimd job document); mutually exclusive with the scenario flags")
	progress := fs.Bool("progress", false, "print a live progress line to stderr every second (single-run modes): backend tier, steps, windowed interactions/sec")
	defaultUsage := fs.Usage
	fs.Usage = func() {
		defaultUsage()
		fmt.Fprintln(fs.Output(), `
Note: composing complex scenarios from long flag forms is deprecated;
prefer -spec scenario.json (the same declarative document the popsimd
job server accepts — see internal/serve.Spec for the schema).`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath != "" {
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "spec" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return fmt.Errorf("-spec is mutually exclusive with scenario flags (got %v); put the scenario in the spec file", extra)
		}
		return runSpec(*specPath)
	}
	if *shards < 0 || *runs < 0 || *workers < 0 {
		return fmt.Errorf("-shards, -runs and -workers must be ≥ 0")
	}
	if *shards > 0 && !*counts {
		return fmt.Errorf("-shards needs -counts: the multi-core single run is -counts -shards P (the counts hybrid); seed ensembles use -runs")
	}
	if *counts && *runs > 0 {
		return fmt.Errorf("-counts is mutually exclusive with -runs")
	}
	if *progress && *runs > 0 {
		return fmt.Errorf("-progress follows a single run's probe; it is mutually exclusive with -runs")
	}
	var batchMode popsim.BatchMode
	switch *batch {
	case "", "auto":
		batchMode = popsim.BatchAuto
	case "on":
		batchMode = popsim.BatchOn
	case "off":
		batchMode = popsim.BatchOff
	default:
		return fmt.Errorf("unknown batch mode %q (auto|on|off)", *batch)
	}

	w, err := serve.WorkloadByName(*protoName)
	if err != nil {
		return err
	}
	kind, err := model.ParseKind(*modelName)
	if err != nil {
		return err
	}
	topo, err := popsim.ParseTopology(*topoName)
	if err != nil {
		return err
	}
	if !topo.IsComplete() {
		if err := topo.Validate(*n); err != nil {
			return err
		}
	}

	spec := popsim.SystemSpec{
		Model:      kind,
		Initial:    w.Config(*n),
		Seed:       *seed,
		Topology:   topo,
		CountBatch: batchMode,
	}
	switch *simName {
	case "":
		if kind.OneWay() {
			spec.Protocol = pp.OneWayAdapter{P: w.Proto}
		} else {
			spec.Protocol = w.Proto
		}
	case "skno":
		s := popsim.SKnO(w.Proto, *o)
		if !kind.OneWay() {
			s = s.TwoWayEmbedded()
		}
		spec.Simulate = &s
	case "sid":
		s := popsim.SID(w.Proto)
		if !kind.OneWay() {
			s = s.TwoWayEmbedded()
		}
		spec.Simulate = &s
	case "naming":
		s := popsim.Naming(w.Proto, *n)
		if !kind.OneWay() {
			s = s.TwoWayEmbedded()
		}
		spec.Simulate = &s
	default:
		return fmt.Errorf("unknown simulator %q (skno|sid|naming)", *simName)
	}
	// Ensemble mode: fan the spec across -runs seeds on the worker pool.
	// The seed list is explicit so -seed 0 is honored literally (the
	// BaseSeed field treats 0 as unset).
	if *runs > 0 {
		seeds := make([]int64, *runs)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		es := popsim.EnsembleSpec{
			Spec:    spec,
			Seeds:   seeds,
			Workers: *workers,
			Until:   w.Done(*n),
			Horizon: *horizon,
		}
		if *omRate > 0 {
			rate, budget := *omRate, *omBudget
			es.AdversaryFor = func(s int64) popsim.Adversary {
				if budget >= 0 {
					return popsim.BudgetedAdversary(s+1, rate, budget)
				}
				return popsim.UOAdversary(s+1, rate, 1)
			}
		}
		res, err := popsim.RunEnsemble(context.Background(), es)
		if err != nil {
			return err
		}
		for _, r := range res.Runs {
			if r.Err != nil {
				return fmt.Errorf("seed %d: %w", r.Seed, r.Err)
			}
		}
		fmt.Printf("protocol=%s sim=%s model=%v topology=%v n=%d runs=%d\n", *protoName, orNative(*simName), kind, topo, *n, *runs)
		fmt.Printf("converged=%d/%d success-rate=%.2f mean-steps=%.0f p50=%.0f p90=%.0f\n",
			res.Converged, len(res.Runs), res.SuccessRate, res.MeanSteps, res.StepsP50, res.StepsP90)
		if res.Converged < len(res.Runs) {
			return fmt.Errorf("%d run(s) did not converge within %d interactions", len(res.Runs)-res.Converged, *horizon)
		}
		return nil
	}

	if *omRate > 0 {
		if *omBudget >= 0 {
			spec.Adversary = popsim.BudgetedAdversary(*seed+1, *omRate, *omBudget)
		} else {
			spec.Adversary = popsim.UOAdversary(*seed+1, *omRate, 1)
		}
	}

	// -progress: arm the system's probe and follow it from a ticker
	// goroutine. The probe travels with the run across backend selection
	// (counts, batch, hybrid, degrades), so one reporter covers
	// every single-run mode below.
	var stopProgress func()
	armProgress := func(sys *popsim.System) {
		if *progress {
			stopProgress = startProgress(sys.Probe())
		}
	}
	defer func() {
		if stopProgress != nil {
			stopProgress()
		}
	}()

	// Counts mode: one run observed through a count predicate. Populations of
	// at least popsim.DefaultCountsBackendN execute on the O(|Q|) counts
	// backend; smaller ones stay on the batched agent-vector engine with the
	// counts view rebuilt per check. Adversary specs are outside the
	// count-predicate contract and are rejected by the facade (ErrCountsSpec).
	if *counts {
		sys, err := popsim.NewSystem(spec)
		if err != nil {
			return err
		}
		armProgress(sys)
		// -counts -shards P: the counts hybrid — P workers each
		// stepping batch dynamics over an O(|Q|) count slice, the parallel
		// tier for populations whose per-agent form does not fit.
		if *shards > 0 {
			res, err := sys.RunHybridCounts(popsim.HybridOptions{Shards: *shards}, w.CountsDone(*n), 0, *horizon)
			if err != nil {
				return err
			}
			fmt.Printf("protocol=%s sim=%s model=%v topology=%v n=%d counts=true shards=%d\n", *protoName, orNative(*simName), kind, topo, *n, *shards)
			if res.Degraded {
				fmt.Printf("degraded to the sequential counts backend: %s\n", res.DegradedReason)
			}
			if spec.Simulate != nil {
				fmt.Printf("backend=%s steps=%d simulated-events=%d converged=%v\n", res.Backend, res.Steps, res.SimEvents, res.Converged)
			} else {
				fmt.Printf("backend=%s steps=%d converged=%v\n", res.Backend, res.Steps, res.Converged)
			}
			if !res.Converged {
				return fmt.Errorf("did not converge within %d interactions", *horizon)
			}
			return nil
		}
		res, err := sys.RunUntilCounts(w.CountsDone(*n), 0, *horizon)
		if err != nil {
			return err
		}
		fmt.Printf("protocol=%s sim=%s model=%v topology=%v n=%d counts=true\n", *protoName, orNative(*simName), kind, topo, *n)
		if res.Degraded {
			fmt.Printf("degraded to the batched engine: %s\n", res.DegradedReason)
		}
		if spec.Simulate != nil {
			fmt.Printf("backend=%s steps=%d simulated-events=%d converged=%v\n", res.Backend, res.Steps, res.SimEvents, res.Converged)
		} else {
			fmt.Printf("backend=%s steps=%d converged=%v\n", res.Backend, res.Steps, res.Converged)
		}
		if !res.Converged {
			return fmt.Errorf("did not converge within %d interactions", *horizon)
		}
		return nil
	}

	sys, err := popsim.NewSystem(spec)
	if err != nil {
		return err
	}
	armProgress(sys)
	done, err := sys.RunUntil(w.Done(*n), *horizon)
	if err != nil {
		return err
	}
	fmt.Printf("protocol=%s sim=%s model=%v topology=%v n=%d\n", *protoName, orNative(*simName), kind, topo, *n)
	fmt.Printf("steps=%d omissions=%d simulated-events=%d converged=%v\n",
		sys.Steps(), sys.Omissions(), sys.SimulatedSteps(), done)
	fmt.Printf("final: %v\n", sys.Projected())
	if spec.Simulate != nil {
		rep, err := sys.VerifySimulation()
		if err != nil {
			return fmt.Errorf("simulation verification FAILED: %w", err)
		}
		fmt.Printf("verification: OK (%d simulated interactions matched, %d in flight, %d identity events dropped)\n",
			len(rep.Pairs), rep.Unmatched(), len(rep.DroppedIdentity))
	}
	if !done {
		return fmt.Errorf("did not converge within %d interactions", *horizon)
	}
	return nil
}

func orNative(s string) string {
	if s == "" {
		return "native"
	}
	return s
}

// startProgress follows a run's probe from a ticker goroutine, printing one
// stderr line per second until the returned stop function is called. Reads
// are atomic snapshots on this goroutine's clock; the simulation hot loops
// never block on the reporter.
func startProgress(probe *popsim.RunProbe) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := probe.Snapshot()
				line := fmt.Sprintf("progress: backend=%s steps=%d rate=%.3g/s", s.Backend, s.Steps, s.InteractionsSec)
				if s.States > 0 {
					line += fmt.Sprintf(" states=%d", s.States)
				}
				if s.BatchRuns > 0 {
					line += fmt.Sprintf(" batch-runs=%d mean-run-len=%.1f", s.BatchRuns, s.BatchMeanRunLen)
				}
				if s.Waves > 0 {
					line += fmt.Sprintf(" waves=%d workers=%d", s.Waves, len(s.Workers))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runSpec executes a declarative scenario document through an in-process job
// manager — the same execution path popsimd serves over HTTP — streaming one
// JSON line per seed run to stdout as results land (the pinned
// `experiments -json` schema).
func runSpec(path string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := serve.ParseSpec(doc)
	if err != nil {
		return err
	}
	m := serve.NewManager(serve.Options{Workers: 1, QueueCap: 1, DisableCache: true})
	defer m.Close()
	job, err := m.Submit(spec)
	if err != nil {
		return err
	}
	enc := report.NewEncoder(os.Stdout)
	next := 0
	for {
		watch := job.Watch()
		lines, terminal := job.Lines()
		for ; next < len(lines); next++ {
			if err := enc.Encode(lines[next]); err != nil {
				return err
			}
		}
		if terminal {
			break
		}
		<-watch
	}
	st := job.Status()
	if st.State != serve.JobDone {
		return fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	if st.Passed < st.Runs {
		return fmt.Errorf("%d run(s) did not converge within %d interactions", st.Runs-st.Passed, spec.Horizon)
	}
	return nil
}
