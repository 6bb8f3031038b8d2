package main

import (
	"fmt"
	"iter"
	"math/rand"
	"time"

	"lazydram/internal/cache"
	"lazydram/internal/core"
	"lazydram/internal/dram"
	"lazydram/internal/icnt"
	"lazydram/internal/mc"
	"lazydram/internal/memimage"
	"lazydram/internal/obs"
	"lazydram/internal/sim"
	"lazydram/internal/stats"
	"lazydram/internal/trafgen"
	"lazydram/internal/workloads"
)

// Fixed latencies of the replays' stand-ins for the layers they leave out.
// They shape the replayed traffic, not the simulator's model.
const (
	// idealMemLatency is the core replay's load latency in core cycles: an
	// L2 hit plus both interconnect traversals.
	idealMemLatency = 40
	// mshrFillLatency is how long the MSHR replay keeps an entry allocated,
	// in core cycles: about one DRAM round trip.
	mshrFillLatency = 300
)

// memRec is one SM transaction of the core replay, in send order.
type memRec struct {
	at  uint64 // core cycle it left the SM
	req *core.MemReq
}

// replayLayers runs the per-layer replay drivers on job j's own traffic.
// ref is the job's simulated statistics; cmds its complete DRAM command trace.
func replayLayers(e *env, j jobRef, cfg sim.Config, ref *stats.Run, cmds *obs.CmdTrace, parent int) error {
	rep := e.rep
	sp := e.tr.begin("core.replay", parent)
	stream, err := replayCore(e, j, cfg, ref)
	if err != nil {
		return err
	}
	e.tr.end(sp, int64(ref.Instructions))
	if len(stream) == 0 {
		return fmt.Errorf("%s: core replay sent no transactions", j.app)
	}
	dst := make([]int, len(stream))
	for i, r := range stream {
		dst[i] = cfg.AddrMap.Decode(r.req.LineAddr).Channel
	}

	sp = e.tr.begin("icnt.replay", parent)
	ns, allocs, pkts := replayIcnt(cfg, stream, dst)
	e.tr.end(sp, int64(pkts))
	rep.set("icnt.ns_per_pkt", ns)
	rep.set("icnt.allocs_per_pkt", allocs)
	rep.set("icnt.pkts", float64(pkts))
	rep.op(countErr("icnt replay delivered", pkts, len(stream)))

	sp = e.tr.begin("cache.replay", parent)
	missIdx := replayL2(e, cfg, stream, dst)
	e.tr.end(sp, int64(len(stream)))
	sp = e.tr.begin("cache.mshr_replay", parent)
	ops := replayMSHR(e, cfg, stream, dst, missIdx)
	e.tr.end(sp, int64(ops))

	sp = e.tr.begin("mc.replay", parent)
	reqs, err := replayMC(e, j, cfg, cmds)
	if err != nil {
		return err
	}
	e.tr.end(sp, int64(reqs))

	sp = e.tr.begin("dram.replay", parent)
	n := replayDRAM(e, cfg, cmds, ref)
	e.tr.end(sp, int64(n))
	return nil
}

func countErr(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s %d, want %d", what, got, want)
	}
	return nil
}

// replayCore runs the job's warp programs on core.SM instances, block by
// block as the simulator dispatches them, against an ideal memory: every
// load is answered from the memory image after idealMemLatency core cycles
// and every store is written straight into it. It reports the SM layer's
// cost per instruction, checks the instruction count against the full
// simulation and the output against the functional model, and returns the
// transactions the SMs sent.
func replayCore(e *env, j jobRef, cfg sim.Config, ref *stats.Run) ([]memRec, error) {
	kern, err := workloads.New(j.app)
	if err != nil {
		return nil, err
	}
	im := memimage.New(kern.MemBytes() + 4*memimage.LineSize)
	kern.Setup(im, rand.New(rand.NewSource(j.seed)))

	type pending struct {
		at  uint64
		req *core.MemReq
	}
	var (
		stream   []memRec
		inflight []pending // in send order, which is also due order
		now      uint64
		storeErr error
	)
	send := func(r *core.MemReq) bool {
		stream = append(stream, memRec{at: now, req: r})
		if r.Load {
			inflight = append(inflight, pending{at: now + idealMemLatency, req: r})
			return true
		}
		for _, s := range r.Stores {
			if s.N != 4 {
				storeErr = fmt.Errorf("core replay: %d-byte store", s.N)
				continue
			}
			im.Write32(s.Addr, uint32(s.Val))
		}
		return true
	}

	var insts, l1Acc, l1Miss uint64
	m0 := mallocs()
	t0 := time.Now()
	for ph := 0; ph < kern.Phases(); ph++ {
		sms := launchPhase(kern, cfg, ph)
		for {
			for len(inflight) > 0 && inflight[0].at <= now {
				p := inflight[0]
				inflight = inflight[1:]
				rep := &core.MemReply{Req: p.req}
				im.ReadLine(p.req.LineAddr, rep.Data[:])
				sms[p.req.SM].HandleReply(rep, now)
			}
			for _, sm := range sms {
				sm.Tick(now, send)
			}
			now++
			if now%64 == 0 && len(inflight) == 0 && allDone(sms) {
				break
			}
		}
		for _, sm := range sms {
			insts += sm.Insts()
			st := sm.L1Stats()
			l1Acc += st.Accesses
			l1Miss += st.Misses
		}
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	out := kern.Output(im)

	golden, goldenT, err := functional(j)
	if err != nil {
		return nil, err
	}
	rep := e.rep
	rep.set("core.ns_per_inst", float64(wall.Nanoseconds())/float64(insts))
	rep.set("core.allocs_per_inst", float64(allocs)/float64(insts))
	rep.set("core.l1_miss_rate", float64(l1Miss)/float64(max(l1Acc, 1)))
	rep.set("exp.golden_ms", ms(goldenT))
	rep.op(storeErr)
	rep.op(countErr("core replay instructions", int(insts), int(ref.Instructions)))
	if !sameFloats(golden, out) {
		rep.op(fmt.Errorf("%s: core replay output differs from sim.RunFunctional", j.app))
	} else {
		rep.op(nil)
	}
	return stream, nil
}

// functional times sim.RunFunctional, the golden run the daemon's Runner
// makes for every new (application, seed).
func functional(j jobRef) ([]float32, time.Duration, error) {
	kern, err := workloads.New(j.app)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	out := sim.RunFunctional(kern, j.seed)
	return out, time.Since(t0), nil
}

// launchPhase builds the phase's SMs the way the simulator does: thread
// blocks of WarpsPerBlock warps dealt round-robin over the SMs.
func launchPhase(kern sim.Kernel, cfg sim.Config, ph int) []*core.SM {
	wpb := max(cfg.WarpsPerBlock, 1)
	warps := make([][]int, cfg.NumSMs)
	for w := 0; w < kern.NumWarps(ph); w++ {
		s := (w / wpb) % cfg.NumSMs
		warps[s] = append(warps[s], w)
	}
	prog := core.Program(func(warpID int, ctx *core.Ctx) iter.Seq[core.Op] {
		return kern.Program(ph, warpID, ctx)
	})
	sms := make([]*core.SM, cfg.NumSMs)
	for s := range sms {
		sms[s] = core.NewSM(s, cfg.SM, prog, warps[s])
	}
	return sms
}

func allDone(sms []*core.SM) bool {
	for _, s := range sms {
		if !s.Done() {
			return false
		}
	}
	return true
}

// replayIcnt sends the core replay's transactions through the request
// crossbar at their recorded cycles (later when a port is full) and
// receives them at the partitions. It returns ns and allocations per packet
// and the packets delivered.
func replayIcnt(cfg sim.Config, stream []memRec, dst []int) (float64, float64, int) {
	ports := cfg.AddrMap.NumChannels
	net := icnt.New(icnt.Config{Ports: ports, LatencyCycles: cfg.IcntLatency, QueueDepth: cfg.IcntQueueDepth})
	delivered := 0
	m0 := mallocs()
	t0 := time.Now()
	var now uint64
	// The loop ends when everything has been sent and nothing is in
	// flight, so a lost packet shows as a short delivered count.
	for i := 0; i < len(stream) || net.Pending() > 0; now++ {
		if i < len(stream) && net.Pending() == 0 && stream[i].at > now {
			now = stream[i].at
		}
		for i < len(stream) && stream[i].at <= now {
			r := stream[i].req
			if !net.Send(r.SM, dst[i], r, now) {
				break
			}
			i++
		}
		for p := 0; p < ports; p++ {
			if _, ok := net.Recv(p, now); ok {
				delivered++
			}
		}
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	return float64(wall.Nanoseconds()) / float64(delivered), float64(allocs) / float64(delivered), delivered
}

// replayL2 runs the transactions through one L2 slice per channel with the
// simulator's geometry: loads read (filling on a miss), stores merge into a
// resident line or allocate it. Fills are immediate; the MSHR replay models
// the wait. It returns the indices of the transactions that missed.
func replayL2(e *env, cfg sim.Config, stream []memRec, dst []int) []int {
	l2 := make([]*cache.Cache, cfg.AddrMap.NumChannels)
	for i := range l2 {
		l2[i] = cache.New(cfg.L2)
	}
	var (
		line [cache.LineSize]byte
		miss []int
	)
	miss = make([]int, 0, len(stream))
	m0 := mallocs()
	t0 := time.Now()
	for i, rec := range stream {
		c := l2[dst[i]]
		r := rec.req
		if r.Load {
			if !c.Read(r.LineAddr, line[:]) {
				c.Fill(r.LineAddr, line[:], false)
				miss = append(miss, i)
			}
			continue
		}
		if !c.Read(r.LineAddr, nil) {
			c.Fill(r.LineAddr, line[:], false)
			miss = append(miss, i)
		}
		for _, s := range r.Stores {
			c.MergeWord(s.Addr, s.Val, s.N, true)
		}
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	var acc, misses uint64
	for _, c := range l2 {
		st := c.Stats()
		acc += st.Accesses
		misses += st.Misses
	}
	rep := e.rep
	rep.set("cache.l2_ns_per_access", float64(wall.Nanoseconds())/float64(len(stream)))
	rep.set("cache.l2_allocs_per_access", float64(allocs)/float64(len(stream)))
	rep.set("cache.l2_accesses", float64(len(stream)))
	rep.set("cache.l2_miss_rate", float64(misses)/float64(max(acc, 1)))
	return miss
}

// replayMSHR runs the L2 misses through one MSHR file per channel with the
// simulator's limits: a miss merges into the line's entry or allocates one,
// and entries retire mshrFillLatency cycles after allocation (the oldest
// earlier when the file is full). It returns the MSHR operations performed.
func replayMSHR(e *env, cfg sim.Config, stream []memRec, dst []int, missIdx []int) int {
	type alloc struct {
		line uint64
		at   uint64
	}
	n := cfg.AddrMap.NumChannels
	files := make([]*cache.MSHR, n)
	live := make([][]alloc, n) // per channel, in allocation order
	for i := range files {
		files[i] = cache.NewMSHR(cfg.L2MSHREntries, cfg.L2MSHRTargets)
	}
	ops := 0
	m0 := mallocs()
	t0 := time.Now()
	for _, i := range missIdx {
		ch, r, at := dst[i], stream[i].req, stream[i].at
		f := files[ch]
		q := live[ch]
		for len(q) > 0 && (q[0].at+mshrFillLatency <= at || f.Full()) {
			f.Remove(q[0].line)
			q = q[1:]
			ops++
		}
		ops++
		if ent := f.Lookup(r.LineAddr); ent != nil {
			if f.CanMerge(ent) {
				ent.Targets = append(ent.Targets, r)
			}
			live[ch] = q
			continue
		}
		ent := f.Allocate(r.LineAddr)
		ent.Targets = append(ent.Targets, r)
		q = append(q, alloc{line: r.LineAddr, at: at})
		live[ch] = q
		ops++
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	rep := e.rep
	rep.set("cache.mshr_ns_per_op", float64(wall.Nanoseconds())/float64(max(ops, 1)))
	rep.set("cache.mshr_allocs_per_op", float64(allocs)/float64(max(ops, 1)))
	rep.set("cache.mshr_ops", float64(ops))
	return ops
}

// cmdReplay is a trafgen.Generator that replays one channel's RD/WR
// commands: same bank, row and direction, with the recorded gaps.
type cmdReplay struct {
	reqs []trafgen.Request
	gaps []uint64
	i    int
}

func (c *cmdReplay) Next(*rand.Rand) (trafgen.Request, uint64) {
	r, g := c.reqs[c.i], c.gaps[c.i]
	c.i++
	return r, g
}

// channelCmds splits the trace by channel, keeping each channel's order.
func channelCmds(cmds *obs.CmdTrace, channels int) [][]obs.Cmd {
	out := make([][]obs.Cmd, channels)
	for _, c := range cmds.Commands() {
		out[c.Channel] = append(out[c.Channel], c)
	}
	return out
}

// replayMC drives a standalone controller per channel, under the job's
// scheme, with that channel's recorded reads and writes as arrivals. Reads
// are approximable whenever the scheme can drop them.
func replayMC(e *env, j jobRef, cfg sim.Config, cmds *obs.CmdTrace) (int, error) {
	mcCfg := cfg.MC
	mcCfg.Scheme = j.scheme
	var gens []*cmdReplay
	for _, cs := range channelCmds(cmds, cfg.AddrMap.NumChannels) {
		g := &cmdReplay{}
		var prev uint64
		for _, c := range cs {
			if c.Kind != obs.CmdRD && c.Kind != obs.CmdWR {
				continue
			}
			if n := len(g.reqs); n > 0 {
				g.gaps[n-1] = c.Cycle - prev
			}
			prev = c.Cycle
			w := c.Kind == obs.CmdWR
			g.reqs = append(g.reqs, trafgen.Request{
				Bank: int(c.Bank), Row: c.Row, Col: uint64(len(g.reqs)%16) * cache.LineSize,
				Write: w, Approximable: !w && j.scheme.AMS != mc.Off,
			})
			g.gaps = append(g.gaps, 0)
		}
		gens = append(gens, g)
	}
	total := 0
	var served, dropped, rejected uint64
	m0 := mallocs()
	t0 := time.Now()
	for _, g := range gens {
		if len(g.reqs) == 0 {
			continue
		}
		res := trafgen.DriveWith(trafgen.DriveConfig{MC: mcCfg, DRAM: cfg.DRAM, Seed: j.seed}, g, len(g.reqs))
		total += len(g.reqs)
		served += res.Served
		dropped += res.Dropped
		rejected += res.Rejected
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	if total == 0 {
		return 0, fmt.Errorf("%s: trace has no reads or writes", j.app)
	}
	rep := e.rep
	rep.set("mc.ns_per_req", float64(wall.Nanoseconds())/float64(total))
	rep.set("mc.allocs_per_req", float64(allocs)/float64(total))
	rep.set("mc.reqs", float64(total))
	rep.op(countErr("mc replay served+dropped+rejected", int(served+dropped+rejected), total))
	return total, nil
}

// replayDRAM issues the recorded commands to one dram.Channel per channel
// at their recorded cycles and reports the channel layer's cost per command
// with the activations and row-buffer locality it accounted. A complete
// trace must account exactly the activations of the run it was recorded in.
func replayDRAM(e *env, cfg sim.Config, cmds *obs.CmdTrace, ref *stats.Run) int {
	all := cmds.Commands()
	n := cfg.AddrMap.NumChannels
	st := make([]stats.Mem, n)
	chans := make([]*dram.Channel, n)
	for i := range chans {
		chans[i] = dram.NewChannel(cfg.DRAM, &st[i])
	}
	m0 := mallocs()
	t0 := time.Now()
	for _, c := range all {
		ch := chans[c.Channel]
		b := int(c.Bank)
		switch c.Kind {
		case obs.CmdACT:
			ch.Activate(b, c.Row, c.Cycle)
		case obs.CmdPRE:
			ch.Precharge(b, c.Cycle)
		case obs.CmdRD:
			ch.Read(b, c.Cycle)
		case obs.CmdWR:
			ch.Write(b, c.Cycle)
		case obs.CmdREF:
			ch.Refreshing(c.Cycle)
		}
	}
	for _, ch := range chans {
		ch.Drain()
	}
	wall := time.Since(t0)
	allocs := mallocs() - m0
	var merged stats.Mem
	for i := range st {
		merged.Merge(&st[i])
	}
	rep := e.rep
	rep.set("dram.ns_per_cmd", float64(wall.Nanoseconds())/float64(len(all)))
	rep.set("dram.allocs_per_cmd", float64(allocs)/float64(len(all)))
	rep.set("dram.cmds", float64(len(all)))
	rep.set("dram.activations", float64(merged.Activations))
	rep.set("dram.avg_rbl", merged.AvgRBL())
	rep.op(countErr("dram replay activations", int(merged.Activations), int(ref.Mem.Activations)))
	return len(all)
}
