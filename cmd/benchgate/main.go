// Command benchgate turns the CI benchmark artifacts (`go test -json` bench
// streams, the BENCH_*.json files) into enforcement and comparison inputs:
//
//	benchgate -budgets perf/budgets_counts.json BENCH_counts.json
//	    checks every budget rule against the benchmark rows and exits
//	    non-zero on any violation — the ns/op budget gate.
//
//	benchgate -extract BENCH_counts.json > counts.txt
//	    reconstructs the plain benchmark text (goos/goarch/pkg/cpu headers
//	    and Benchmark result rows) for benchstat consumption — the delta
//	    report against the committed perf/baseline_*.txt files.
//
// Budget files hold a list of rules; each rule must match at least one
// benchmark row (a rule that matches nothing fails the gate — a renamed
// benchmark must not silently un-gate itself):
//
//	{"budgets": [
//	  {"name": "counts-inner-loop",
//	   "bench": "^BenchmarkCountEngineThroughput/counts/",
//	   "max_ns_op": 20},
//	  {"name": "hybrid-P4-speedup",
//	   "bench": "^BenchmarkHybridThroughput/P=4",
//	   "base": "^BenchmarkHybridThroughput/seq-batch",
//	   "max_ratio": 0.5}
//	]}
//
// An absolute rule (max_ns_op) bounds every matching row's ns/op; its
// wall-clock sibling (max_sec_op) does the same in seconds, for benchmarks
// where one op is a whole run (seconds-to-consensus gates). A ratio rule
// (base + max_ratio) bounds the mean ns/op of the matching rows by
// max_ratio times the mean ns/op of the base rows.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var budgetsPath string
	var extract bool
	var inputs []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-budgets":
			i++
			if i >= len(args) {
				return fmt.Errorf("-budgets needs a file argument")
			}
			budgetsPath = args[i]
		case "-extract":
			extract = true
		default:
			if strings.HasPrefix(args[i], "-") {
				return fmt.Errorf("unknown flag %q (want -budgets FILE and/or -extract)", args[i])
			}
			inputs = append(inputs, args[i])
		}
	}
	if budgetsPath == "" && !extract {
		return fmt.Errorf("nothing to do: pass -budgets FILE and/or -extract")
	}

	text, err := readBenchText(inputs, stdin)
	if err != nil {
		return err
	}
	if extract {
		for _, line := range benchstatLines(text) {
			fmt.Fprintln(stdout, line)
		}
	}
	if budgetsPath == "" {
		return nil
	}

	rules, err := loadBudgets(budgetsPath)
	if err != nil {
		return err
	}
	results := parseResults(text)
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result rows in the input")
	}
	report, ok := checkBudgets(rules, results)
	fmt.Fprint(stdout, report)
	if !ok {
		return fmt.Errorf("budget violations")
	}
	return nil
}

// readBenchText reconstructs the raw benchmark text stream from the inputs.
// Each input may be a `go test -json` event stream (Output fragments are
// concatenated in order, so result rows split across events reassemble) or
// already-plain benchmark text; files and stdin mix freely.
func readBenchText(paths []string, stdin io.Reader) (string, error) {
	var sb strings.Builder
	consume := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			var ev struct {
				Action string `json:"Action"`
				Output string `json:"Output"`
			}
			if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &ev) == nil && ev.Action != "" {
				if ev.Action == "output" {
					sb.WriteString(ev.Output)
				}
				continue
			}
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		return sc.Err()
	}
	if len(paths) == 0 {
		if err := consume(stdin); err != nil {
			return "", err
		}
		return sb.String(), nil
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		err = consume(f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("%s: %w", p, err)
		}
	}
	return sb.String(), nil
}

// benchstatLines filters the reconstructed text down to what benchstat
// reads: the environment header lines and the benchmark result rows.
func benchstatLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "goos:"),
			strings.HasPrefix(trimmed, "goarch:"),
			strings.HasPrefix(trimmed, "pkg:"),
			strings.HasPrefix(trimmed, "cpu:"):
			out = append(out, trimmed)
		case strings.HasPrefix(trimmed, "Benchmark") && strings.Contains(trimmed, "ns/op"):
			out = append(out, trimmed)
		}
	}
	return out
}

// benchResult is one benchmark result row.
type benchResult struct {
	Name    string // full row name including the -P cpu suffix
	NsPerOp float64
}

// parseResults extracts the ns/op rows from reconstructed benchmark text.
func parseResults(text string) []benchResult {
	var out []benchResult
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields: Name iterations (value unit)...
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			out = append(out, benchResult{Name: fields[0], NsPerOp: v})
			break
		}
	}
	return out
}

// budgetRule is one gate: absolute per-op time (MaxNsOp, or MaxSecOp for
// wall-clock budgets like seconds-to-consensus, where one benchmark op is a
// whole run) or relative (Base + MaxRatio).
type budgetRule struct {
	Name     string  `json:"name"`
	Bench    string  `json:"bench"`
	MaxNsOp  float64 `json:"max_ns_op,omitempty"`
	MaxSecOp float64 `json:"max_sec_op,omitempty"`
	Base     string  `json:"base,omitempty"`
	MaxRatio float64 `json:"max_ratio,omitempty"`
}

func loadBudgets(path string) ([]budgetRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Budgets []budgetRule `json:"budgets"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Budgets) == 0 {
		return nil, fmt.Errorf("%s: no budget rules", path)
	}
	for _, r := range doc.Budgets {
		if r.Bench == "" {
			return nil, fmt.Errorf("%s: rule %q has no bench pattern", path, r.Name)
		}
		kinds := 0
		for _, set := range []bool{r.MaxNsOp > 0, r.MaxSecOp > 0, r.Base != "" && r.MaxRatio > 0} {
			if set {
				kinds++
			}
		}
		if kinds != 1 {
			return nil, fmt.Errorf("%s: rule %q must set exactly one of max_ns_op, max_sec_op or base+max_ratio", path, r.Name)
		}
	}
	return doc.Budgets, nil
}

// checkBudgets evaluates every rule, returning a human-readable report and
// whether all rules passed.
func checkBudgets(rules []budgetRule, results []benchResult) (string, bool) {
	var sb strings.Builder
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(&sb, "FAIL %s\n", fmt.Sprintf(format, args...))
	}
	for _, r := range rules {
		re, err := regexp.Compile(r.Bench)
		if err != nil {
			fail("%s: bad bench pattern: %v", r.Name, err)
			continue
		}
		var rows []benchResult
		for _, b := range results {
			if re.MatchString(b.Name) {
				rows = append(rows, b)
			}
		}
		if len(rows) == 0 {
			fail("%s: pattern %q matched no benchmark rows", r.Name, r.Bench)
			continue
		}
		if r.MaxNsOp > 0 {
			for _, b := range rows {
				if b.NsPerOp > r.MaxNsOp {
					fail("%s: %s = %.2f ns/op, budget %.2f", r.Name, b.Name, b.NsPerOp, r.MaxNsOp)
				} else {
					fmt.Fprintf(&sb, "ok   %s: %s = %.2f ns/op ≤ %.2f\n", r.Name, b.Name, b.NsPerOp, r.MaxNsOp)
				}
			}
			continue
		}
		if r.MaxSecOp > 0 {
			// Wall-clock budget: one benchmark op is a whole run (e.g.
			// seconds-to-consensus), so the row's ns/op IS the wall time.
			for _, b := range rows {
				sec := b.NsPerOp / 1e9
				if sec > r.MaxSecOp {
					fail("%s: %s = %.2f s/op, budget %.2f s", r.Name, b.Name, sec, r.MaxSecOp)
				} else {
					fmt.Fprintf(&sb, "ok   %s: %s = %.2f s/op ≤ %.2f s\n", r.Name, b.Name, sec, r.MaxSecOp)
				}
			}
			continue
		}
		baseRe, err := regexp.Compile(r.Base)
		if err != nil {
			fail("%s: bad base pattern: %v", r.Name, err)
			continue
		}
		var base []benchResult
		for _, b := range results {
			if baseRe.MatchString(b.Name) {
				base = append(base, b)
			}
		}
		if len(base) == 0 {
			fail("%s: base pattern %q matched no benchmark rows", r.Name, r.Base)
			continue
		}
		ratio := mean(rows) / mean(base)
		if ratio > r.MaxRatio {
			fail("%s: %.2f / %.2f ns/op = %.3f×, budget %.2f×", r.Name, mean(rows), mean(base), ratio, r.MaxRatio)
		} else {
			fmt.Fprintf(&sb, "ok   %s: %.2f / %.2f ns/op = %.3f× ≤ %.2f×\n", r.Name, mean(rows), mean(base), ratio, r.MaxRatio)
		}
	}
	return sb.String(), ok
}

func mean(rows []benchResult) float64 {
	var s float64
	for _, b := range rows {
		s += b.NsPerOp
	}
	return s / float64(len(rows))
}
