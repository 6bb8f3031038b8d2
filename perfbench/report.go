package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricSpec declares one reported metric. The end-to-end and per-layer
// tables below are the benchmark's contract with BENCHMARK.json; the
// package's tests check that the two agree name for name and unit for unit.
type metricSpec struct {
	Name  string
	Unit  string
	Bound float64 // end-to-end only: allowed worsening as a share of the median
	// Lower marks a metric for which lower is better. For per-layer counts
	// of simulated events the direction is nominal: a speed-only change
	// must leave them identical.
	Lower bool
}

// endToEnd are the metrics a user of the simulator or the daemon sees.
// Every workload reports every one of them (see README.md for what each
// means on the simulation workloads and on lazyd-mix).
var endToEnd = []metricSpec{
	{Name: "insts_per_s", Unit: "inst/s", Bound: 0.25},
	{Name: "insts_per_cpu_s", Unit: "inst/CPU-s", Bound: 0.25},
	{Name: "allocs_per_kinst", Unit: "alloc/kinst", Bound: 0.05, Lower: true},
	{Name: "setup_s", Unit: "s", Bound: 0.25, Lower: true},
	{Name: "rss_peak_mb", Unit: "MiB", Bound: 0.25, Lower: true},
	{Name: "ok_frac", Unit: "fraction", Bound: 0.01},
	{Name: "jobs_per_s", Unit: "job/s", Bound: 0.25},
	{Name: "hit_p50_ms", Unit: "ms", Bound: 0.25, Lower: true},
	{Name: "miss_p50_ms", Unit: "ms", Bound: 0.25, Lower: true},
}

// perLayer are the metrics of single layers, from the traced run. They
// have no bound.
var perLayer = []metricSpec{
	{Name: "sim.core_step_us", Unit: "us", Lower: true},
	{Name: "sim.mem_tick_us", Unit: "us", Lower: true},
	{Name: "sim.finish_ms", Unit: "ms", Lower: true},
	{Name: "sim.insts", Unit: "inst"},
	{Name: "sim.core_cycles", Unit: "cycle", Lower: true},
	{Name: "sim.mem_cycles", Unit: "cycle", Lower: true},
	{Name: "sim.skippable_frac", Unit: "fraction"},
	{Name: "trace.insts_per_s", Unit: "inst/s"},
	{Name: "trace.overhead_insts_per_s", Unit: "inst/s"},
	{Name: "core.ns_per_inst", Unit: "ns", Lower: true},
	{Name: "core.allocs_per_inst", Unit: "alloc", Lower: true},
	{Name: "core.l1_miss_rate", Unit: "fraction", Lower: true},
	{Name: "icnt.ns_per_pkt", Unit: "ns", Lower: true},
	{Name: "icnt.allocs_per_pkt", Unit: "alloc", Lower: true},
	{Name: "icnt.pkts", Unit: "count"},
	{Name: "cache.l2_ns_per_access", Unit: "ns", Lower: true},
	{Name: "cache.l2_allocs_per_access", Unit: "alloc", Lower: true},
	{Name: "cache.l2_accesses", Unit: "count"},
	{Name: "cache.l2_miss_rate", Unit: "fraction", Lower: true},
	{Name: "cache.mshr_ns_per_op", Unit: "ns", Lower: true},
	{Name: "cache.mshr_allocs_per_op", Unit: "alloc", Lower: true},
	{Name: "cache.mshr_ops", Unit: "count"},
	{Name: "mc.ns_per_req", Unit: "ns", Lower: true},
	{Name: "mc.allocs_per_req", Unit: "alloc", Lower: true},
	{Name: "mc.reqs", Unit: "count"},
	{Name: "mc.coverage", Unit: "fraction"},
	{Name: "mc.mean_delay", Unit: "cycle", Lower: true},
	{Name: "mc.dms_hold_share", Unit: "fraction", Lower: true},
	{Name: "mc.queued_share", Unit: "fraction", Lower: true},
	{Name: "dram.ns_per_cmd", Unit: "ns", Lower: true},
	{Name: "dram.allocs_per_cmd", Unit: "alloc", Lower: true},
	{Name: "dram.cmds", Unit: "count"},
	{Name: "dram.activations", Unit: "count", Lower: true},
	{Name: "dram.avg_rbl", Unit: "access/act"},
	{Name: "obs.overhead_frac", Unit: "fraction", Lower: true},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Lower: true},
	{Name: "service.hit_p95_ms", Unit: "ms", Lower: true},
	{Name: "service.http_us", Unit: "us", Lower: true},
	{Name: "service.canonicalize_us", Unit: "us", Lower: true},
	{Name: "service.cache_get_us", Unit: "us", Lower: true},
	{Name: "service.spill_get_us", Unit: "us", Lower: true},
	{Name: "service.hits", Unit: "count"},
	{Name: "service.misses", Unit: "count", Lower: true},
	{Name: "service.spill_reads", Unit: "count", Lower: true},
	{Name: "service.evictions", Unit: "count", Lower: true},
	{Name: "service.rss_mb_per_miss", Unit: "MiB", Lower: true},
	{Name: "exp.queue_wait_ms", Unit: "ms", Lower: true},
	{Name: "exp.run_ms", Unit: "ms", Lower: true},
	{Name: "exp.golden_ms", Unit: "ms", Lower: true},
	{Name: "rundoc.build_ms", Unit: "ms", Lower: true},
	{Name: "rundoc.encode_ms", Unit: "ms", Lower: true},
	{Name: "rundoc.doc_kb", Unit: "KiB", Lower: true},
	{Name: "error_frac", Unit: "fraction", Lower: true},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and operation outcomes.
type report struct {
	units   map[string]string
	metrics map[string]metric
	// samples records how many samples stand behind each percentile or
	// mean, for the detail line printed before the result.
	samples map[string]int
	// unscaled keeps the measured value of each metric that setScaled
	// scaled to the reference host.
	unscaled  map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport(specs []metricSpec) *report {
	r := &report{
		units:    make(map[string]string),
		metrics:  make(map[string]metric),
		samples:  make(map[string]int),
		unscaled: make(map[string]float64),
	}
	for _, s := range specs {
		r.units[s.Name] = s.Unit
	}
	return r
}

// set records a metric of the run's table; names of the other table are
// ignored, so shared measuring code can report both kinds.
func (r *report) set(name string, v float64) {
	if u, ok := r.units[name]; ok {
		r.metrics[name] = metric{Value: v, Unit: u}
	}
}

// setN records a metric together with the number of samples behind it.
func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

// setScaled records a time or a rate of time, measured on a host that ran
// slowdown times slower than the reference host (see hostClock), as it
// would read on the reference host: a rate (rate true) is multiplied by the
// slowdown, a time divided by it.
func (r *report) setScaled(name string, v float64, n int, slowdown float64, rate bool) {
	r.unscaled[name] = v
	if rate {
		r.setN(name, v*slowdown, n)
	} else {
		r.setN(name, v/slowdown, n)
	}
}

// op counts one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// finish checks that every metric of the table was measured and builds the
// result line.
func (r *report) finish() (result, error) {
	var missing []string
	for name := range r.units {
		m, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, fmt.Errorf("metrics not measured: %v", missing)
	}
	if r.attempted == 0 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// span is one timed interval of the traced run, recorded from the
// benchmark's side of a call into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	// Ops is the work the span covered (steps, packets, requests, ...).
	Ops int64 `json:"ops,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay no cost.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartUS: time.Since(t.t0).Microseconds()})
	return id
}

// end closes span id, recording the work it covered.
func (t *tracer) end(id int, ops int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndUS = time.Since(t.t0).Microseconds()
	s.Ops = ops
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printResult writes the detail line and then the result line, which must
// be the last line of standard output.
func printResult(w io.Writer, detail map[string]any, res result) error {
	d, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, out)
	return err
}
