package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"lazydram/internal/rundoc"
	"lazydram/internal/service"
)

// serviceHits is how many repeat submissions of the job the service-layer
// pass sends, over HTTP and in-process each.
const serviceHits = 200

// serviceLayer measures the service, exp and rundoc layers on one job: the
// job's canonicalization, its run document's build and encoding, the cache
// tiers serving that document, and the HTTP share of a cache hit. d is the
// lazyd-mix daemon, which already holds the job; without one, an
// in-process service stands in for the daemon behind a loopback HTTP
// server, and the job's own miss supplies the service metrics that
// lazyd-mix reads from its daemon.
func serviceLayer(e *env, spec service.JobSpec, d *daemon, parent int) error {
	rep := e.rep
	job, err := service.Canonicalize(spec)
	if err != nil {
		return err
	}
	rep.setN("service.canonicalize_us", e.timeOp("service.canonicalize", parent, 31, 200, func() {
		_, _ = service.Canonicalize(spec)
	}), 31)

	sp := e.tr.begin("exp.direct_run", parent)
	res, wall, raw, err := directDoc(spec)
	if err != nil {
		return err
	}
	e.tr.end(sp, 1)
	var doc rundoc.Doc
	rep.setN("rundoc.build_ms", e.timeOp("rundoc.build", parent, 9, 5, func() {
		doc = rundoc.Build(&res.Run, res, job.Spec.Seed, wall, docTopBanks)
	})/1e3, 9)
	var encErr error
	rep.setN("rundoc.encode_ms", e.timeOp("rundoc.encode", parent, 9, 5, func() {
		_, encErr = rundoc.Encode(doc)
	})/1e3, 9)
	if encErr != nil {
		return encErr
	}
	rep.set("rundoc.doc_kb", float64(len(raw))/1024)

	// The cache tiers: a resident hit, and a hit that reads the spill
	// directory (a one-byte bound keeps only the newest document resident,
	// so alternating between two ids reads the disk every time).
	c := service.NewCache(1<<20, "", nil)
	c.Put(job.ID, raw)
	rep.setN("service.cache_get_us", e.timeOp("service.cache_get", parent, 31, 200, func() { c.Get(job.ID) }), 31)
	sc := service.NewCache(1, filepath.Join(e.work, "spill"), nil)
	ids := [2]string{"a", "b"}
	sc.Put(ids[0], raw)
	sc.Put(ids[1], raw)
	k := 0
	rep.setN("service.spill_get_us", e.timeOp("service.spill_get", parent, 15, 20, func() {
		sc.Get(ids[k%2])
		k++
	}), 15)
	rep.op(countErr("spill reads", int(sc.Stats().SpillReads), 15*20))

	// An in-process service that has executed the job: its Submit+Result
	// is a hit without HTTP.
	sp = e.tr.begin("service.inprocess", parent)
	svc := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20, CacheDir: filepath.Join(e.work, "svc-cache")})
	defer svc.Close()
	heap0 := liveHeap()
	sub, _, err := svc.Submit(spec)
	if err != nil {
		return err
	}
	svc.Wait(sub.ID, 0)
	want, _, err := svc.Result(sub.ID)
	if err != nil {
		return err
	}
	heap1 := liveHeap()
	var hitErr error
	inproc := batchTime(31, serviceHits/20, func() {
		s, _, err := svc.Submit(spec)
		if err == nil && !s.Cached {
			err = fmt.Errorf("in-process repeat of %s was not a cache hit", s.ID)
		}
		if err == nil {
			_, _, err = svc.Result(s.ID)
		}
		if err != nil {
			hitErr = err
		}
	})
	rep.op(hitErr)
	e.tr.end(sp, 1+31*serviceHits/20)

	sp = e.tr.begin("service.http_hits", parent)
	var target apiClient
	if d != nil {
		target = d.apiClient
	} else {
		addr, stop, err := loopback(svc)
		if err != nil {
			return err
		}
		defer stop()
		target = newAPIClient(addr)
		defer target.client.CloseIdleConnections()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var lat []float64
	for i := 0; i < serviceHits; i++ {
		got, id, cached, l, err := target.submit(body)
		switch {
		case err != nil:
		case !cached:
			err = fmt.Errorf("HTTP repeat of %s was not a cache hit", id)
		case !bytes.Equal(got, want) && d == nil:
			err = fmt.Errorf("HTTP hit on %s served other bytes than the service holds", id)
		}
		rep.op(err)
		lat = append(lat, float64(l.Nanoseconds())/1e3)
	}
	e.tr.end(sp, serviceHits)
	rep.setN("service.http_us", median(lat)-inproc, len(lat))
	if d != nil {
		return nil
	}

	// Without a daemon, the in-process service's own counters stand in for
	// the ones lazyd-mix reads from its daemon.
	cs := svc.Stats().Cache
	rep.setN("service.hit_p95_ms", percentile(lat, 95)/1e3, len(lat))
	rep.set("service.hits", float64(cs.Hits))
	rep.set("service.misses", float64(cs.Misses))
	rep.set("service.spill_reads", float64(cs.SpillReads))
	rep.set("service.evictions", float64(cs.Evictions))
	rep.setN("service.rss_mb_per_miss", (heap1-heap0)/(1<<20), 1)
	st, ok := svc.Status(sub.ID)
	if !ok || st.Span == nil {
		return fmt.Errorf("in-process service: no runner span for %s", sub.ID)
	}
	rep.setN("exp.queue_wait_ms", float64(st.Span.QueueWaitUS)/1e3, 1)
	rep.setN("exp.run_ms", float64(st.Span.WallUS)/1e3, 1)
	return nil
}

// liveHeap collects garbage and returns the bytes still in use.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// timeOp times fn with batchTime inside a span and returns µs per call.
func (e *env) timeOp(name string, parent, batches, n int, fn func()) float64 {
	sp := e.tr.begin(name, parent)
	us := batchTime(batches, n, fn)
	e.tr.end(sp, int64(batches*n))
	return us
}

// loopback serves the service's HTTP API on a loopback port. stop closes
// the server and waits for its goroutine.
func loopback(svc *service.Service) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: loopback server:", err)
		}
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return ln.Addr().String(), stop, nil
}
