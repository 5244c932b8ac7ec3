package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// op is one (scenario, seed) unit of work of an op-list workload
// (paper-sims, counts-consensus). run executes it through the facade; tr is
// nil on untraced passes.
type op struct {
	scenario string
	seed     int64
	run      func(tr *tracer, opID int) (opResult, error)
}

// opResult is what one op reports: its interactions, and in traced passes
// the per-op counts read at its boundaries.
type opResult struct {
	steps  int
	counts map[string]float64
}

// pass totals one or more passes over the op list.
type pass struct {
	latMS  []float64
	wall   time.Duration // summed op wall time
	cpu    time.Duration // summed op CPU time
	steps  int
	ok     int
	counts map[string]float64
}

func (p *pass) add(q pass) {
	p.latMS = append(p.latMS, q.latMS...)
	p.wall += q.wall
	p.cpu += q.cpu
	p.steps += q.steps
	p.ok += q.ok
	for k, v := range q.counts {
		p.counts[k] += v
	}
}

// opWorkload runs a fixed op list. The list is the same for every seed —
// every run does exactly the same interactions — and -seed only picks the
// order the ops run in.
type opWorkload struct {
	cfg    config
	out    *outcome
	ops    []op
	order  []int
	nextID int
}

func newOpWorkload(cfg config, out *outcome, ops []op) *opWorkload {
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(ops))
	return &opWorkload{cfg: cfg, out: out, ops: ops, order: order}
}

// pass runs every op once. Each op starts after a forced collection, so one
// op's garbage is not collected inside the next, and is timed alone.
func (w *opWorkload) pass(tr *tracer) pass {
	p := pass{counts: map[string]float64{}}
	for _, i := range w.order {
		o := w.ops[i]
		runtime.GC()
		id := w.nextID
		w.nextID++
		c0, t0 := selfCPU(), time.Now()
		res, err := o.run(tr, id)
		d := time.Since(t0)
		p.cpu += selfCPU() - c0
		w.out.Attempted++
		key := fmt.Sprintf("%s seed=%d", o.scenario, o.seed)
		if err != nil {
			w.out.Failed++
			w.out.problem("%s: %v", key, err)
			continue
		}
		p.ok++
		p.latMS = append(p.latMS, float64(d.Nanoseconds())/1e6)
		p.wall += d
		p.steps += res.steps
		w.out.record(key, res.steps)
		for k, v := range res.counts {
			p.counts[k] += v
		}
	}
	return p
}

// timed repeats whole passes while another one fits in cfg.seconds, running
// at least one.
func (w *opWorkload) timed() pass {
	total := pass{counts: map[string]float64{}}
	start := time.Now()
	for {
		p0 := time.Now()
		total.add(w.pass(nil))
		if w.cfg.smoke || time.Since(start)+time.Since(p0) > secondsOf(w.cfg.seconds) {
			return total
		}
	}
}

// traced runs one untraced and one traced pass over the same ops and
// reports the tracing overhead; it returns the traced pass and its spans.
func (w *opWorkload) traced() (pass, *tracer) {
	plain := w.pass(nil)
	tr := newTracer()
	p := w.pass(tr)
	w.out.set("bench.trace_overhead_ratio", ratio(quantile(p.latMS, 0.5), quantile(plain.latMS, 0.5)), "ratio")
	return p, tr
}

// endToEnd sets the end-to-end metrics of an op-list workload from its
// timed passes.
func (w *opWorkload) endToEnd(setupS float64, p pass) error {
	p50, p90 := quantile(p.latMS, 0.5), quantile(p.latMS, 0.9)
	w.out.set("setup_s", setupS, "s")
	w.out.set("latency_ms_p50", p50, "ms")
	w.out.set("latency_ms_p90", p90, "ms")
	w.out.set("interactions_per_s", ratio(float64(p.steps), p.wall.Seconds()), "1/s")
	w.out.set("cpu_ms_per_op", ratio(float64(p.cpu.Nanoseconds())/1e6, float64(p.ok)), "ms")
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	w.out.set("peak_rss_mb", rss, "MB")
	w.out.note("%d ops timed, %d beyond p90, %d interactions in %.2f s of op time",
		len(p.latMS), beyond(p.latMS, p90), p.steps, p.wall.Seconds())
	return nil
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 3

// setupCount is how many times the workload sets up in this run.
func setupCount(cfg config) int {
	if cfg.smoke {
		return 1
	}
	return setupReps
}

// medianSetup runs setup reps times and returns the median duration in
// seconds.
func medianSetup(reps int, setup func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return quantile(xs, 0.5), nil
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
