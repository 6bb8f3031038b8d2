package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// gcCPU returns the cumulative GC CPU seconds and total CPU seconds the Go
// runtime has accounted for.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// stopwatch times an interval in wall time and in unstolen time: wall time
// less the share of it the hypervisor took from the machine's virtual CPUs
// (the steal column of /proc/stat's cpu line, summed over every CPU). On a
// shared virtual machine another tenant's load shows up as steal, not as
// the simulator's cost. Without steal, unstolen time is wall time.
type stopwatch struct {
	t            time.Time
	steal, total uint64
}

func startStopwatch() stopwatch {
	s := stopwatch{t: time.Now()}
	s.steal, s.total = hostTicks()
	return s
}

// read returns the wall and unstolen time since the stopwatch started.
func (s stopwatch) read() (wall, unstolen time.Duration) {
	wall = time.Since(s.t)
	steal, total := hostTicks()
	if total <= s.total {
		return wall, wall
	}
	share := float64(steal-s.steal) / float64(total-s.total)
	return wall, time.Duration(float64(wall) * (1 - share))
}

// hostTicks returns the steal ticks and all ticks of /proc/stat's cpu line
// (zero where it cannot be read).
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user and nice).
	for i, v := range fields[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// procStatusKB reads one "Name:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		parts := strings.Fields(line[len(field)+1:])
		if len(parts) == 0 {
			break
		}
		return strconv.ParseFloat(parts[0], 64)
	}
	return 0, fmt.Errorf("%s: no %s field", path, field)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
// Linux reports it in clock ticks of 1/100 s on every supported platform.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: too few fields", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// batchTime measures fn's mean time per call in microseconds: it times
// batches of n calls and returns the median batch's per-call mean, so one
// slow batch (a GC, a preempted time slice) does not move the figure.
func batchTime(batches, n int, fn func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
	}
	return median(per)
}

// hostClock measures how fast the host runs at the moment, so that the
// end-to-end times can be scaled to a host of fixed speed.
//
// A shared virtual machine slows down and speeds up by 15-40% over minutes
// with no steal to show for it, and every wall-time figure moves with it. A
// fixed reference task, sorting the same calRefLen integers, slows down in
// step: over runs of one workload its time correlates with the simulator's
// step-loop time at 0.94-0.99. The reference task is the benchmark's own
// code, so a change to the program cannot speed it up; in the simulation
// workloads it runs only while the simulation is paused.
type hostClock struct {
	src, buf []int
	us       []float64 // time of each reference task, µs
}

const (
	calRefLen = 4096
	// calRefUS is the reference host: one on which the reference task
	// takes 300 µs, about what a 2-vCPU Sapphire Rapids virtual machine
	// takes in its fast spells. Scaled figures are those of that host.
	calRefUS = 300.0
)

func newHostClock() *hostClock {
	rng := rand.New(rand.NewSource(1))
	c := &hostClock{src: make([]int, calRefLen), buf: make([]int, calRefLen)}
	for i := range c.src {
		c.src[i] = rng.Int()
	}
	return c
}

// sample times the reference task n times.
func (c *hostClock) sample(n int) {
	for range n {
		t0 := time.Now()
		copy(c.buf, c.src)
		slices.Sort(c.buf)
		c.us = append(c.us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// sampleEvery times the reference task once every period, from its own
// goroutine, until stop is called; stop returns once the goroutine has
// ended.
func (c *hostClock) sampleEvery(period time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				c.sample(1)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// slowdown is the p-th percentile of the reference task's time over its
// time on the reference host: 1.2 means the host ran 20% slower than the
// reference host. Scale a time measured with the same statistic by
// dividing it by the slowdown, and a rate by multiplying.
func (c *hostClock) slowdown(p float64) float64 {
	return percentile(c.us, p) / calRefUS
}
