// Command perfbench is the repository's benchmark. It measures how fast the
// simulator runs and how quickly the lazyd daemon answers, end to end with
// tracing off, and layer by layer in a separate traced run that replays each
// workload's own traffic through one layer at a time. It checks every output
// it produces and prints one JSON result line last.
//
//	perfbench -root <checkout> --workload gemm-baseline --seed 1 --seconds 20 --trace 0
//
// run.sh builds the binary and the lazyd daemon from the checkout and then
// runs it; see README.md for the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lazydram/internal/mc"
)

// env is one benchmark run's configuration and output sinks.
type env struct {
	work    string        // per-run scratch directory
	lazyd   string        // lazyd binary built from the checkout
	seed    int64         // workload seed
	seconds time.Duration // measuring time
	traced  bool          // per-layer run
	rep     *report
	tr      *tracer // nil unless traced
	detail  map[string]any
}

func newEnv(work, lazyd string, seed int64, seconds int, traced bool) *env {
	e := &env{
		work:    work,
		lazyd:   lazyd,
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		traced:  traced,
		detail:  map[string]any{"seed": seed, "seconds": seconds, "traced": traced},
	}
	if traced {
		e.rep = newReport(perLayer)
		e.tr = newTracer()
	} else {
		e.rep = newReport(endToEnd)
	}
	return e
}

// runWorkload runs the named workload and returns its result line.
func (e *env) runWorkload(name string) (result, error) {
	e.detail["workload"] = name
	var err error
	if w, ok := simWorkloads[name]; ok {
		err = runSim(e, w)
	} else if name == lazydMix {
		err = runLazydMix(e)
	} else {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return result{}, err
	}
	failed := float64(e.rep.failed) / float64(max(e.rep.attempted, 1))
	if e.traced {
		e.rep.set("error_frac", failed)
	} else {
		e.rep.set("ok_frac", 1-failed)
	}
	e.detail["samples"] = e.rep.samples
	if len(e.rep.unscaled) > 0 {
		e.detail["unscaled"] = e.rep.unscaled
	}
	if len(e.rep.problems) > 0 {
		e.detail["problems"] = e.rep.problems
	}
	return e.rep.finish()
}

// simWorkload is a workload that runs one simulation job after another in
// the benchmark's own process.
type simWorkload struct {
	app    string
	scheme mc.Scheme
	// exact marks a scheme that approximates nothing, so the output must
	// equal the functional model's bit for bit.
	exact bool
}

// simWorkloads are the in-process workloads; README.md says why each was
// chosen.
var simWorkloads = map[string]simWorkload{
	"scp-dynboth":   {app: "SCP", scheme: mc.DynBoth},
	"gemm-baseline": {app: "GEMM", scheme: mc.Baseline, exact: true},
}

const lazydMix = "lazyd-mix"

func workloadNames() []string {
	names := []string{lazydMix}
	for n := range simWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "root of the lazydram checkout")
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(*root, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := newEnv(work, filepath.Join(build, "lazyd"), seed, seconds, trace == 1)
	res, err := e.runWorkload(workload)
	if err != nil {
		return err
	}
	if e.traced {
		path := filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := e.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		e.detail["spans"] = path
	}
	return printResult(os.Stdout, e.detail, res)
}
