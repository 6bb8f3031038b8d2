package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"lazydram/internal/mc"
	"lazydram/internal/service"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
	"lazydram/internal/workloads"
)

// minSetups is how many times a run sets up, at least, so that setup_s is a
// median rather than one sample.
const minSetups = 15

// stepRun is one simulation driven by GPU.Step, with the host cost of its
// step loop plus Finish.
type stepRun struct {
	res                 *sim.Result
	wall, unstolen, cpu time.Duration
	mallocs             uint64
}

// pauseEvery is the stepping time after which stepToEnd calls its pause
// function; pauseCheck is how many steps pass between two looks at the
// clock.
const (
	pauseEvery = 50 * time.Millisecond
	pauseCheck = 64
)

// stepToEnd runs a prepared GPU to completion and measures the step loop
// plus Finish: wall and unstolen time, process CPU time and heap
// allocations. A non-nil pause is called after every pauseEvery of
// stepping, outside the measured intervals.
func stepToEnd(g *sim.GPU, pause func()) (stepRun, error) {
	var sr stepRun
	m0, c0 := mallocs(), cpuTime()
	sw := startStopwatch()
	// stop ends the current measured interval.
	stop := func() {
		wall, unstolen := sw.read()
		sr.wall += wall
		sr.unstolen += unstolen
		sr.cpu += cpuTime() - c0
		sr.mallocs += mallocs() - m0
	}
	for n := 1; ; n++ {
		done, err := g.Step()
		if err != nil {
			g.Close()
			return stepRun{}, err
		}
		if done {
			break
		}
		if pause != nil && n%pauseCheck == 0 && time.Since(sw.t) >= pauseEvery {
			stop()
			pause()
			m0, c0 = mallocs(), cpuTime()
			sw = startStopwatch()
		}
	}
	sr.res = g.Finish()
	stop()
	return sr, nil
}

// prepare builds the workload's machine and inputs from the seed, timing it.
func prepare(w simWorkload, cfg sim.Config, seed int64) (*sim.GPU, time.Duration, error) {
	kern, err := workloads.New(w.app)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	g := sim.Prepare(kern, cfg, w.scheme, seed)
	return g, time.Since(t0), nil
}

func runSim(e *env, w simWorkload) error {
	if e.traced {
		return simLayers(e, jobRef{app: w.app, scheme: w.scheme, seed: e.seed}, w.spec(e.seed), nil)
	}
	return simEndToEnd(e, w)
}

// simEndToEnd runs whole jobs of the workload back to back until the
// measuring time is used up. Rates are sums over every job of the run, so a
// slow job weighs only its share.
func simEndToEnd(e *env, w simWorkload) error {
	cfg := sim.DefaultConfig()
	var golden []float32
	if w.exact {
		kern, err := workloads.New(w.app)
		if err != nil {
			return err
		}
		golden = sim.RunFunctional(kern, e.seed)
	}
	var (
		first                *stats.Run
		firstOut             []float32
		insts, allocs        uint64
		wall, unstolen, cpu  time.Duration
		setups, jobs, stepMS []float64
	)
	hitSample, stopHits, err := newHitSampler(w.spec(e.seed))
	if err != nil {
		return err
	}
	defer stopHits()
	var hitP50s []float64 // hit batch medians, ms
	// The step loop pauses every pauseEvery to time the reference task once
	// and one hit batch, so that both are spread evenly over the run.
	clock := newHostClock()
	hitBatch := func() {
		clock.sample(1)
		var err error
		hitP50s, err = hitSample(hitP50s)
		e.rep.op(err)
	}
	deadline := time.Now().Add(e.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// Collect the previous job's garbage outside the measured interval,
		// so each job starts from the same heap.
		runtime.GC()
		g, setup, err := prepare(w, cfg, e.seed)
		if err != nil {
			return err
		}
		sr, err := stepToEnd(g, hitBatch)
		if err != nil {
			e.rep.op(err)
			continue
		}
		setups = append(setups, setup.Seconds())
		jobs = append(jobs, ms(setup+sr.unstolen))
		stepMS = append(stepMS, ms(sr.unstolen))
		insts += sr.res.Run.Instructions
		allocs += sr.mallocs
		wall += sr.wall
		unstolen += sr.unstolen
		cpu += sr.cpu
		r := sr.res
		e.rep.op(checkJob(r, first, firstOut, golden))
		if first == nil {
			run := r.Run
			first, firstOut = &run, r.Output
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no %s job completed", w.app)
	}
	if len(hitP50s) == 0 {
		hitBatch()
	}
	for len(setups) < minSetups {
		runtime.GC()
		g, setup, err := prepare(w, cfg, e.seed)
		if err != nil {
			return err
		}
		g.Close()
		setups = append(setups, setup.Seconds())
	}
	rss, err := procStatusKB(0, "VmHWM")
	if err != nil {
		return err
	}
	// Whole-run figures scale by the reference task's median time, the
	// hit figure by the same percentile of it as its own.
	slow, slowHit := clock.slowdown(50), clock.slowdown(hitFastPercentile)
	rep := e.rep
	rep.setScaled("insts_per_s", float64(insts)/unstolen.Seconds(), len(jobs), slow, true)
	rep.setScaled("insts_per_cpu_s", float64(insts)/cpu.Seconds(), len(jobs), slow, true)
	rep.setN("allocs_per_kinst", float64(allocs)/(float64(insts)/1000), len(jobs))
	rep.setScaled("setup_s", median(setups), len(setups), slow, false)
	rep.set("rss_peak_mb", rss/1024)
	rep.setScaled("jobs_per_s", float64(len(jobs))/(sum(jobs)/1000), len(jobs), slow, true)
	rep.setScaled("miss_p50_ms", median(jobs), len(jobs), slow, false)
	rep.setScaled("hit_p50_ms", percentile(hitP50s, hitFastPercentile), len(hitP50s), slowHit, false)
	e.detail["host_slowdown"] = slow
	e.detail["host_slowdown_p10"] = slowHit
	e.detail["host_samples"] = len(clock.us)
	e.detail["insts_per_job"] = first.Instructions
	e.detail["job_ms"] = jobs
	e.detail["step_ms"] = stepMS
	e.detail["hit_batch_p50_ms_median"] = median(hitP50s)
	e.detail["wall_insts_per_s"] = float64(insts) / wall.Seconds()
	e.detail["steal_frac"] = 1 - unstolen.Seconds()/wall.Seconds()
	return nil
}

// checkJob applies the simulation workloads' output checks to one job: the
// memory statistics are self-consistent, the job repeats the run's first
// job bit for bit, and an exact scheme reproduces the functional output.
func checkJob(r *sim.Result, first *stats.Run, firstOut, golden []float32) error {
	if err := sameRun(first, r); err != nil {
		return err
	}
	if first != nil && !sameFloats(firstOut, r.Output) {
		return fmt.Errorf("%s: output differs from the run's first job", r.Run.App)
	}
	if golden != nil && !sameFloats(golden, r.Output) {
		return fmt.Errorf("%s: output differs from sim.RunFunctional", r.Run.App)
	}
	return nil
}

// sameFloats compares two outputs bit for bit.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The simulation workloads time hits in batches of hitBatchSize requests,
// each request on its own, and take each batch's median. The step loop stops
// for one batch every pauseEvery.
//
// On a shared host one hit takes about 6 µs or about 10 µs, in spells of
// 0.1 s to a few seconds that do not depend on the process: the same
// requests, run at GOMAXPROCS 1 or 2, with or without a collected heap, all
// switch between the two modes. The median over a whole run lands on
// whichever mode the host happened to favour, so hit_p50_ms reports the
// hitFastPercentile-th percentile of the batch medians instead: the median
// hit in the run's fast spells, which repeats from run to run.
const (
	hitBatchSize      = 200
	hitFastPercentile = 10
)

// newHitSampler prepares the hit path of a simulation workload: what a repeat
// request for the job costs the daemon's service layer, POST /v1/jobs and
// GET /v1/jobs/{id}/result through service.Service's HTTP handler,
// in-process, answered from the result cache. The service executes the job
// once first. sample appends the median time of one batch of hitBatchSize
// hits, in ms, to batchP50s; stop closes the service.
func newHitSampler(spec service.JobSpec) (sample func(batchP50s []float64) ([]float64, error), stop func(), err error) {
	svc := service.New(service.Config{Workers: 1})
	sub, _, err := svc.Submit(spec)
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	svc.Wait(sub.ID, 0)
	want, _, err := svc.Result(sub.ID)
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	h := svc.Handler()
	// The requests and response buffers are reused, so that the hits
	// allocate only what the service itself allocates.
	post := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	get := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	var postW, getW responseBuffer
	var rd bytes.Reader
	batch := make([]float64, hitBatchSize)
	sample = func(batchP50s []float64) ([]float64, error) {
		var hitErr error
		for i := range batch {
			t0 := time.Now()
			rd.Reset(body)
			post.Body = io.NopCloser(&rd)
			postW.reset()
			h.ServeHTTP(&postW, post)
			getW.reset()
			h.ServeHTTP(&getW, get)
			if postW.code != http.StatusOK || getW.code != http.StatusOK || !bytes.Equal(getW.body.Bytes(), want) {
				hitErr = fmt.Errorf("in-process hit on %s: POST %d, GET %d", sub.ID, postW.code, getW.code)
			}
			batch[i] = ms(time.Since(t0))
		}
		return append(batchP50s, median(batch)), hitErr
	}
	return sample, func() { svc.Close() }, nil
}

// responseBuffer is a reusable http.ResponseWriter.
type responseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *responseBuffer) reset() {
	if w.header == nil {
		w.header = make(http.Header)
	}
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

func (w *responseBuffer) Header() http.Header { return w.header }

func (w *responseBuffer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseBuffer) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// spec is the daemon job that runs the workload's simulation.
func (w simWorkload) spec(seed int64) service.JobSpec {
	return service.JobSpec{App: w.app, Scheme: schemeFlag(w.scheme), Seed: seed}
}

// schemeFlag is the scheme's name as lazysim -scheme and the daemon accept it.
func schemeFlag(s mc.Scheme) string {
	switch s {
	case mc.Baseline:
		return "baseline"
	case mc.DynDMS:
		return "dyn-dms"
	case mc.DynAMS:
		return "dyn-ams"
	case mc.DynBoth:
		return "dyn-both"
	}
	return s.Name()
}
