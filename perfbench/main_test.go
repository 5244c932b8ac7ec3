package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildPopsimd builds the server the popsimd-jobs workload drives.
func buildPopsimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "popsimd")
	cmd := exec.Command("go", "build", "-o", bin, "popsim/cmd/popsimd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build popsimd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the result line: correct, and carrying exactly the metrics
// BENCHMARK.json names for that mode, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	popsimd := buildPopsimd(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", wl.Name, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-smoke", "-popsimd", popsimd, "-root", "..",
					"-spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestPerLayerTable keeps the program's per-layer table and BENCHMARK.json
// in step.
func TestPerLayerTable(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := perLayer[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s (%s): program has %q", m.Name, m.Unit, unit)
		}
	}
}

// TestScheduleMix checks the popsimd-jobs schedule keeps its designed mix
// and its cold (spec, seed) set for every seed.
func TestScheduleMix(t *testing.T) {
	var want []string
	for _, seed := range []int64{1, 2, 9} {
		next := map[jobKind]int64{coldCounts: 1000, coldSim: 1000}
		warm := []*request{{kind: coldCounts, doc: countsDoc(1)}}
		reqs := schedule(seed, secondsOf(4), next, warm)
		var hits int
		var colds []string
		for _, r := range reqs {
			switch r.kind {
			case cacheHit:
				hits++
				fromWarm := r.target == warm[0]
				if r.target == nil || r.doc != r.target.doc || !fromWarm && r.target.due > r.due-hitLag {
					t.Fatalf("seed %d: hit at %v targets %+v", seed, r.due, r.target)
				}
			default:
				colds = append(colds, r.doc)
			}
		}
		if got := float64(hits) / float64(len(reqs)); got != 0.3 {
			t.Errorf("seed %d: hit share %v, want 0.3", seed, got)
		}
		slices.Sort(colds)
		if want == nil {
			want = colds
		} else if strings.Join(colds, "\n") != strings.Join(want, "\n") {
			t.Errorf("seed %d: cold set differs from seed 1's", seed)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %v, want 4", q)
	}
	if beyond(xs, 2.5) != 2 {
		t.Errorf("beyond 2.5: %d, want 2", beyond(xs, 2.5))
	}
}
