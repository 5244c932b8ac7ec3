// Command perfbench is popsim's end-to-end benchmark. One invocation runs
// one workload in this process (popsimd-jobs also drives a popsimd child),
// checks every output, and prints one JSON result line last on stdout:
//
//	{"correct":true,"attempted":36,"failed":0,"metrics":{"latency_ms_p50":{"value":612.3,"unit":"ms"},…}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// -trace 1 they are the per-layer set, measured by spans this program records
// around its own calls into each layer. perfbench/run.py builds this program
// and popsimd from source and is the command to run; see perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to a seconds-long run (the benchmark's own
	// tests use it); the metrics keep their names but not their meaning.
	smoke   bool
	popsimd string // path of the built popsimd binary (popsimd-jobs)
	root    string // repository root, for the source fingerprint
	spans   string // where the traced run writes its spans ("" = nowhere)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the result plus what the report
// prints around it.
type outcome struct {
	result
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	// digest maps "scenario seed=N" to the interactions that run took, so a
	// change in the work done between runs or commits is visible.
	digest map[string]int
	// notes are extra human-readable report lines.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{result: result{Metrics: map[string]metric{}}, digest: map[string]int{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// record adds one digest entry, flagging a (scenario, seed) whose step count
// differs from an earlier pass of the same run: every op is seed-determined.
func (o *outcome) record(key string, steps int) {
	if prev, ok := o.digest[key]; ok && prev != steps {
		o.problem("%s: %d interactions, %d in an earlier pass (non-deterministic)", key, steps, prev)
	}
	o.digest[key] = steps
}

// digestHex condenses the digest into one short hash over its sorted entries.
func (o *outcome) digestHex() string {
	keys := make([]string, 0, len(o.digest))
	for k := range o.digest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, o.digest[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-sims":       runPaperSims,
	"counts-consensus": runCountsConsensus,
	"popsimd-jobs":     runPopsimdJobs,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "paper-sims|counts-consensus|popsimd-jobs")
	fs.Int64Var(&cfg.seed, "seed", 1, "orders the fixed op list (the work done is the same for every seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of the untraced run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the benchmark's own tests")
	fs.StringVar(&cfg.popsimd, "popsimd", "", "built popsimd binary (popsimd-jobs)")
	fs.StringVar(&cfg.root, "root", "..", "repository root (source fingerprint)")
	fs.StringVar(&cfg.spans, "spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	fpLine, _ := json.Marshal(map[string]any{"fingerprint": fingerprint(cfg.root)})
	fmt.Fprintln(stdout, string(fpLine))

	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out.Correct = len(out.problems) == 0
	printReport(stderr, cfg, out)
	digestLine, _ := json.Marshal(map[string]any{"digest": out.digestHex(), "entries": len(out.digest)})
	fmt.Fprintln(stdout, string(digestLine))
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// printReport prints the human-readable summary: checks, digest, notes and every
// metric by name with its unit.
func printReport(w io.Writer, cfg config, out *outcome) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d correct=%v\n",
		cfg.workload, cfg.seed, mode, out.Attempted, out.Failed, out.Correct)
	for _, p := range out.problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "   digest %s over %d (scenario, seed) entries\n", out.digestHex(), len(out.digest))
	for _, n := range out.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
