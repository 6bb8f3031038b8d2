package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/service"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
)

// jobRef names one simulation: application, scheme and input seed.
type jobRef struct {
	app    string
	scheme mc.Scheme
	seed   int64
}

// traceCapacity bounds the DRAM command ring of the trace pass. It must
// hold every command of the run; the replay refuses a trace that wrapped.
const traceCapacity = 1 << 20

// fullTelemetry is every telemetry feature lazysim offers short of live
// metrics: the obs.overhead_frac pass.
var fullTelemetry = obs.Options{
	Latency: true, SampleEvery: 1024, AuditCapacity: 1 << 16,
	Quality: true, Census: true, DigestEvery: 4096,
}

// stepSplit is a traced step loop: every GPU.Step is timed from outside and
// classed by whether it advanced the memory clock.
type stepSplit struct {
	res            *sim.Result
	unstolen       time.Duration
	finish         time.Duration
	coreNS, memNS  int64
	coreN, memN    int64
	insts, memCycs uint64
}

func tracedSteps(g *sim.GPU) (stepSplit, error) {
	var s stepSplit
	sw := startStopwatch()
	for {
		mc0 := g.MemCycle()
		st := time.Now()
		done, err := g.Step()
		d := time.Since(st).Nanoseconds()
		if err != nil {
			g.Close()
			return s, err
		}
		if g.MemCycle() != mc0 {
			s.memNS += d
			s.memN++
		} else {
			s.coreNS += d
			s.coreN++
		}
		if done {
			break
		}
	}
	s.memCycs = g.MemCycle()
	f := time.Now()
	s.res = g.Finish()
	s.finish = time.Since(f)
	_, s.unstolen = sw.read()
	s.insts = s.res.Run.Instructions
	return s, nil
}

// sameRun reports a simulation whose statistics differ from the reference
// run of the same job: telemetry and tracing must not change the model.
func sameRun(ref *stats.Run, res *sim.Result) error {
	if err := res.Run.Mem.Validate(); err != nil {
		return fmt.Errorf("stats.Mem.Validate: %w", err)
	}
	if ref != nil && !reflect.DeepEqual(*ref, res.Run) {
		return fmt.Errorf("%s/%s: run statistics differ between passes", res.Run.App, res.Run.Scheme)
	}
	return nil
}

// simLayers is the traced run of one simulation job. It times GPU.Step from
// outside with and without per-step spans, runs the census/trace and
// full-telemetry passes, replays the job's traffic through the core, icnt,
// cache, mc and dram layers one at a time, and measures the service layer
// on the job's document. d is the daemon for lazyd-mix (nil for the
// simulation workloads, which serve the job from an in-process service).
func simLayers(e *env, j jobRef, spec service.JobSpec, d *daemon) error {
	rep := e.rep
	root := e.tr.begin("sim", 0)
	gc0, cpu0 := gcCPU()
	w := simWorkload{app: j.app, scheme: j.scheme}
	cfg := sim.DefaultConfig()

	// Untraced and traced passes alternate for half the measuring time.
	var (
		ref                  *stats.Run
		offTime, onTime      time.Duration // unstolen
		offInsts, onInsts    uint64
		coreNS, memNS        int64
		coreN, memN, offRuns int64
		finish               []float64
		split                stepSplit
	)
	deadline := time.Now().Add(e.seconds / 2)
	for offRuns == 0 || time.Now().Before(deadline) {
		runtime.GC()
		sp := e.tr.begin("sim.pass.untraced", root)
		g, _, err := prepare(w, cfg, j.seed)
		if err != nil {
			return err
		}
		sr, err := stepToEnd(g, nil)
		if err != nil {
			return err
		}
		e.tr.end(sp, int64(sr.res.Run.CoreCycles))
		rep.op(sameRun(ref, sr.res))
		if ref == nil {
			run := sr.res.Run
			ref = &run
		}
		offTime += sr.unstolen
		offInsts += sr.res.Run.Instructions
		offRuns++

		runtime.GC()
		sp = e.tr.begin("sim.pass.traced", root)
		g, _, err = prepare(w, cfg, j.seed)
		if err != nil {
			return err
		}
		split, err = tracedSteps(g)
		if err != nil {
			return err
		}
		e.tr.end(sp, split.coreN+split.memN)
		rep.op(sameRun(ref, split.res))
		onTime += split.unstolen
		onInsts += split.insts
		coreNS += split.coreNS
		memNS += split.memNS
		coreN += split.coreN
		memN += split.memN
		finish = append(finish, ms(split.finish))
	}
	coreStep := float64(coreNS) / float64(max(coreN, 1)) / 1e3
	rep.setN("sim.core_step_us", coreStep, int(coreN))
	rep.setN("sim.mem_tick_us", float64(memNS)/float64(max(memN, 1))/1e3-coreStep, int(memN))
	rep.setN("sim.finish_ms", mean(finish), len(finish))
	rep.set("sim.insts", float64(ref.Instructions))
	rep.set("sim.core_cycles", float64(ref.CoreCycles))
	rep.set("sim.mem_cycles", float64(split.memCycs))
	offRate := float64(offInsts) / offTime.Seconds()
	onRate := float64(onInsts) / onTime.Seconds()
	rep.setN("trace.insts_per_s", onRate, len(finish))
	rep.setN("trace.overhead_insts_per_s", onRate-offRate, len(finish))
	rep.set("mc.coverage", ref.Mem.Coverage())
	rep.set("mc.mean_delay", ref.Mem.MeanDelay())

	// Census and DRAM command trace: the stall attribution, the skippable
	// share, and the command stream the mc and dram replays need.
	runtime.GC()
	sp := e.tr.begin("sim.pass.census_trace", root)
	tcfg := cfg
	tcfg.Obs = obs.Options{Census: true, TraceCapacity: traceCapacity}
	g, _, err := prepare(w, tcfg, j.seed)
	if err != nil {
		return err
	}
	cr, err := stepToEnd(g, nil)
	if err != nil {
		return err
	}
	e.tr.end(sp, int64(cr.res.Run.CoreCycles))
	rep.op(sameRun(ref, cr.res))
	cmds := cr.res.Trace
	if cmds == nil || cmds.Total() == 0 || cmds.Dropped() != 0 {
		return fmt.Errorf("%s: DRAM command trace incomplete (total %d, dropped %d)",
			j.app, cmds.Total(), cmds.Dropped())
	}
	cen := cr.res.Telemetry.Census
	rep.set("sim.skippable_frac", cen.SkippableFrac)
	var hold, queued float64
	for _, s := range cen.Stalls {
		switch s.Cause {
		case "dms_hold":
			hold = s.Share
		case "queued":
			queued = s.Share
		}
	}
	rep.set("mc.dms_hold_share", hold)
	rep.set("mc.queued_share", queued)

	runtime.GC()
	sp = e.tr.begin("sim.pass.full_telemetry", root)
	fcfg := cfg
	fcfg.Obs = fullTelemetry
	g, _, err = prepare(w, fcfg, j.seed)
	if err != nil {
		return err
	}
	fr, err := stepToEnd(g, nil)
	if err != nil {
		return err
	}
	e.tr.end(sp, int64(fr.res.Run.CoreCycles))
	rep.op(sameRun(ref, fr.res))
	rep.set("obs.overhead_frac", fr.unstolen.Seconds()/(offTime.Seconds()/float64(offRuns))-1)

	if err := replayLayers(e, j, cfg, ref, cmds, root); err != nil {
		return err
	}
	if err := serviceLayer(e, spec, d, root); err != nil {
		return err
	}
	gc1, cpu1 := gcCPU()
	if d == nil {
		rep.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
	}
	e.tr.end(root, 0)
	return nil
}
