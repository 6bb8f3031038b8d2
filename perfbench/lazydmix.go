package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"lazydram/internal/exp"
	"lazydram/internal/rundoc"
	"lazydram/internal/service"
	"lazydram/internal/sim"
)

// The lazyd-mix traffic: small applications under the four schemes, half
// of the jobs with the audit, quality and census telemetry on.
var (
	mixApps    = []string{"MVT", "BICG", "ATAX", "jmein", "srad", "LPS", "laplacian", "newtonraph"}
	mixSchemes = []string{"baseline", "dyn-dms", "dyn-ams", "dyn-both"}
)

const (
	mixClients  = 2 // closed-loop clients, each with its own job set
	mixNewEvery = 7 // one submission in 7 is a job's first sighting
	// mixMissesPerSecond sizes each client's fixed sequence from the
	// measuring time: a miss costs about half a second on a 2-core host.
	mixMissesPerSecond = 2
	mixSetups          = 9 // daemon starts per run, for the setup_s median
	// The reference task of hostClock runs every mixCalEvery during the
	// sequence; the run's slowdown is its mixCalPercentile-th percentile.
	mixCalEvery      = 50 * time.Millisecond
	mixCalPercentile = 10
	// docTopBanks is the hottest-banks list length of a run document, as
	// lazysim and the daemon build it.
	docTopBanks = 8
)

// mixSequences derives each client's fixed submission sequence from the
// seed. Which jobs miss depends only on the sequence length: every client
// meets every application once per round, and the round fixes the job's
// scheme and telemetry, so runs of different seeds simulate the same mix.
// The seed orders the applications within a round, picks the repeats
// (uniformly among the client's jobs so far, so that the 1 MiB resident
// cache tier cannot hold them all and the spill tier serves part of the
// hits), and sets the jobs' input seeds. Each job belongs to one client, so
// it is a miss only for the client that first sends it.
func mixSequences(seed int64, seconds time.Duration) [mixClients][]service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	misses := max(2, int(seconds.Seconds()*mixMissesPerSecond))
	var seqs [mixClients][]service.JobSpec
	for c := range seqs {
		var (
			seen []service.JobSpec
			perm []int
		)
		for i := 0; i < misses*mixNewEvery; i++ {
			if i%mixNewEvery != 0 {
				seqs[c] = append(seqs[c], seen[rng.Intn(len(seen))])
				continue
			}
			k := len(seen)
			if k%len(mixApps) == 0 {
				perm = rng.Perm(len(mixApps))
			}
			a := perm[k%len(mixApps)]
			slot := k/len(mixApps)*mixClients + c
			tel := (slot+a)%2 == 1
			job := service.JobSpec{
				App:    mixApps[a],
				Scheme: mixSchemes[(slot+a)%len(mixSchemes)],
				Seed:   1 + seed*1000 + int64(slot),
				Obs:    service.ObsSpec{Audit: tel, Quality: tel, Census: tel},
			}
			seen = append(seen, job)
			seqs[c] = append(seqs[c], job)
		}
	}
	return seqs
}

// clientLog is what one closed-loop client measured and checked.
type clientLog struct {
	hits, misses []float64 // latency, ms
	insts        uint64    // instructions simulated by its misses
	queueUS      []float64 // per-miss Runner span: queue wait
	runUS        []float64 // per-miss Runner span: execution
	first        map[string][]byte
	attempted    int
	errs         []error
}

// runClient walks one fixed sequence, sending each job only after the
// previous answer arrived. A first sighting must simulate; a repeat must be
// answered from the cache with exactly the bytes of its first answer.
func runClient(d *daemon, seq []service.JobSpec, traced bool) *clientLog {
	l := &clientLog{first: make(map[string][]byte)}
	seen := make(map[service.JobSpec]bool)
	for _, spec := range seq {
		l.attempted++
		body, err := json.Marshal(spec)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		doc, id, cached, lat, err := d.submit(body)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		repeat := seen[spec]
		seen[spec] = true
		if cached != repeat {
			l.errs = append(l.errs, fmt.Errorf("job %s: cached=%v on a repeat=%v submission", id, cached, repeat))
			continue
		}
		if cached {
			if !bytes.Equal(doc, l.first[id]) {
				l.errs = append(l.errs, fmt.Errorf("job %s: cached answer differs from its first answer", id))
				continue
			}
			l.hits = append(l.hits, ms(lat))
			continue
		}
		var head struct {
			Instructions uint64 `json:"instructions"`
		}
		if err := json.Unmarshal(doc, &head); err != nil || head.Instructions == 0 {
			l.errs = append(l.errs, fmt.Errorf("job %s: result document without instructions (%v)", id, err))
			continue
		}
		l.first[id] = doc
		l.insts += head.Instructions
		l.misses = append(l.misses, ms(lat))
		if traced {
			var st service.JobStatus
			if err := d.getJSON(d.base+"/v1/jobs/"+id, &st); err != nil || st.Span == nil {
				l.errs = append(l.errs, fmt.Errorf("job %s: no runner span (%v)", id, err))
				continue
			}
			l.queueUS = append(l.queueUS, float64(st.Span.QueueWaitUS))
			l.runUS = append(l.runUS, float64(st.Span.WallUS))
		}
	}
	return l
}

// runLazydMix is the lazyd-mix workload: the daemon in its own process,
// two closed-loop clients walking fixed seeded sequences.
func runLazydMix(e *env) error {
	rep := e.rep
	seqs := mixSequences(e.seed, e.seconds)
	cacheDir := filepath.Join(e.work, "lazyd-cache")

	// Set up several times; all daemons but the last stop straight away.
	var (
		setups []float64
		d      *daemon
	)
	for i := 0; i < mixSetups; i++ {
		if err := os.RemoveAll(cacheDir); err != nil {
			return err
		}
		dd, t, err := startDaemon(e.lazyd, cacheDir, filepath.Join(e.work, fmt.Sprintf("lazyd-%d.log", i)))
		if err != nil {
			return err
		}
		setups = append(setups, t.Seconds())
		if i < mixSetups-1 {
			if err := dd.stop(); err != nil {
				return err
			}
			continue
		}
		d = dd
	}
	defer d.stop()

	pid := d.pid()
	rss0, err := procStatusKB(pid, "VmRSS")
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	m0, _, err := d.runtimeStats()
	if err != nil {
		return err
	}

	// The reference task runs beside the sequence, since the daemon is
	// never idle during it; its 10th percentile keeps the samples that did
	// not wait for a CPU.
	clock := newHostClock()
	stopClock := clock.sampleEvery(mixCalEvery)

	sp := e.tr.begin("lazyd.sequence", 0)
	var logs [mixClients]*clientLog
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = runClient(d, seqs[c], e.traced)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	stopClock()

	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	m1, gcFrac, err := d.runtimeStats()
	if err != nil {
		return err
	}
	hwm, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return err
	}
	rss1, err := procStatusKB(pid, "VmRSS")
	if err != nil {
		return err
	}
	var (
		hits, misses, queueUS, runUS []float64
		insts                        uint64
		subs                         int
	)
	first := make(map[string][]byte)
	for _, l := range logs {
		hits = append(hits, l.hits...)
		misses = append(misses, l.misses...)
		queueUS = append(queueUS, l.queueUS...)
		runUS = append(runUS, l.runUS...)
		insts += l.insts
		subs += l.attempted
		for _, err := range l.errs {
			rep.op(err)
		}
		for i := len(l.errs); i < l.attempted; i++ {
			rep.op(nil)
		}
		for id, doc := range l.first {
			first[id] = doc
		}
	}
	e.tr.end(sp, int64(subs))
	if len(hits) == 0 || len(misses) == 0 || insts == 0 {
		return fmt.Errorf("lazyd-mix: %d hits, %d misses, %d instructions; the sequence is broken", len(hits), len(misses), insts)
	}
	e.detail["submissions"] = subs
	e.detail["miss_ms"] = misses

	// One miss per run must equal a direct in-process run document.
	repr := seqs[0][0]
	job, err := service.Canonicalize(repr)
	if err != nil {
		return err
	}
	rep.op(sameDoc(first[job.ID], repr))

	if !e.traced {
		slow := clock.slowdown(mixCalPercentile)
		rep.setScaled("insts_per_s", float64(insts)/wall.Seconds(), len(misses), slow, true)
		rep.setScaled("insts_per_cpu_s", float64(insts)/(cpu1-cpu0).Seconds(), len(misses), slow, true)
		rep.setN("allocs_per_kinst", float64(m1-m0)/(float64(insts)/1000), len(misses))
		rep.setScaled("setup_s", median(setups), len(setups), slow, false)
		rep.set("rss_peak_mb", hwm/1024)
		rep.setScaled("jobs_per_s", float64(subs)/wall.Seconds(), subs, slow, true)
		rep.setScaled("hit_p50_ms", median(hits), len(hits), slow, false)
		rep.setScaled("miss_p50_ms", median(misses), len(misses), slow, false)
		e.detail["host_slowdown"] = slow
		e.detail["host_samples"] = len(clock.us)
		return nil
	}

	var cs service.CacheStats
	if err := d.getJSON(d.base+"/v1/cache/stats", &cs); err != nil {
		return err
	}
	rep.setN("service.hit_p95_ms", percentile(hits, 95), len(hits))
	rep.set("service.hits", float64(cs.Hits))
	rep.set("service.misses", float64(cs.Misses))
	rep.set("service.spill_reads", float64(cs.SpillReads))
	rep.set("service.evictions", float64(cs.Evictions))
	rep.setN("service.rss_mb_per_miss", (rss1-rss0)/1024/float64(len(misses)), len(misses))
	rep.setN("exp.queue_wait_ms", median(queueUS)/1e3, len(queueUS))
	rep.setN("exp.run_ms", median(runUS)/1e3, len(runUS))
	rep.set("runtime.gc_cpu_frac", gcFrac)

	return simLayers(e, jobRef{app: repr.App, scheme: job.Scheme, seed: job.Spec.Seed}, repr, d)
}

// directDoc runs a job in-process through exp.Runner and rundoc, the way
// the daemon executes it, and returns the result, its simulation wall time
// and its encoded document.
func directDoc(spec service.JobSpec) (*sim.Result, time.Duration, []byte, error) {
	job, err := service.Canonicalize(spec)
	if err != nil {
		return nil, 0, nil, err
	}
	r := exp.NewRunner(exp.Options{Workers: 1})
	res, err := r.Run(job.Spec.App, job.Scheme, job.Variant)
	if err != nil {
		return nil, 0, nil, err
	}
	secs, _ := r.Timing(job.Spec.App, job.Scheme, job.Variant)
	wall := time.Duration(secs * float64(time.Second))
	raw, err := rundoc.Encode(rundoc.Build(&res.Run, res, job.Spec.Seed, wall, docTopBanks))
	return res, wall, raw, err
}

// sameDoc checks a daemon answer against a direct in-process run of the
// same job, ignoring what differs between two honest runs: wall-clock
// fields (wall_ms and the census host-phase profile, which lazycmp also
// excludes) and build provenance (meta).
func sameDoc(daemonDoc []byte, spec service.JobSpec) error {
	if daemonDoc == nil {
		return fmt.Errorf("no daemon answer for %s/%s", spec.App, spec.Scheme)
	}
	_, _, raw, err := directDoc(spec)
	if err != nil {
		return err
	}
	a, err := comparableDoc(daemonDoc)
	if err != nil {
		return err
	}
	b, err := comparableDoc(raw)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s/%s seed %d: daemon document differs from a direct run", spec.App, spec.Scheme, spec.Seed)
	}
	return nil
}

func comparableDoc(raw []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "wall_ms")
	delete(m, "meta")
	if tel, ok := m["telemetry"].(map[string]any); ok {
		if cen, ok := tel["census"].(map[string]any); ok {
			delete(cen, "host")
		}
	}
	return m, nil
}
