package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lazydram/internal/service"
)

// apiClient talks to a lazyd HTTP API.
type apiClient struct {
	base   string // http://host:port
	client *http.Client
}

func newAPIClient(addr string) apiClient {
	return apiClient{base: "http://" + addr, client: &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}}
}

// daemon is one lazyd process the benchmark started. stop ends it and
// waits for it on every path.
type daemon struct {
	apiClient
	cmd    *exec.Cmd
	pprof  string // http://host:port of its net/http/pprof server
	exited chan error
}

// freeAddrs returns n distinct loopback addresses no one listens on right
// now. All n listeners are open at once, so the addresses differ.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startDaemon execs lazyd with the lazyd-mix settings (default workers, a
// 1 MiB resident cache, a spill directory) and waits for its first 200
// from /healthz. It returns the time from exec to that answer.
func startDaemon(bin, cacheDir, logPath string) (*daemon, time.Duration, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, 0, err
	}
	addr, paddr := addrs[0], addrs[1]
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{apiClient: newAPIClient(addr), pprof: "http://" + paddr, exited: make(chan error, 1)}
	t0 := time.Now()
	d.cmd = exec.Command(bin, "-addr", addr, "-cache-mb", "1", "-cache-dir", cacheDir, "-pprof", paddr)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// The daemon must not outlive a benchmark that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lazyd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("lazyd exited before serving: %v: %s", err, bytes.TrimSpace(log))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("lazyd not healthy after 60 s (log %s)", logPath)
		}
	}
}

// stop sends SIGTERM, which drains the daemon, and waits for it to exit; it
// kills the daemon if the drain takes longer than a minute. lazyd starts
// serving before it installs its SIGTERM handler, so a daemon stopped just
// after its first answer may die of the signal instead of draining; that
// too is a stop.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		err := <-d.exited
		d.exited <- err
		return fmt.Errorf("lazyd did not drain within a minute: %v", err)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// submit posts one job and reads its result document, as a client that
// waits for the answer does. It returns the document, whether the daemon
// answered from its cache, and the time from the POST to the last byte.
func (c apiClient) submit(body []byte) (doc []byte, id string, cached bool, lat time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.client.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", false, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", false, 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, "", false, 0, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var sub service.SubmitResult
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, "", false, 0, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	url := c.base + "/v1/jobs/" + sub.ID + "/result"
	if !sub.Cached {
		url += "?wait=5m"
	}
	doc, err = c.get(url)
	if err != nil {
		return nil, sub.ID, sub.Cached, 0, err
	}
	return doc, sub.ID, sub.Cached, time.Since(t0), nil
}

// get fetches a URL and requires a 200.
func (c apiClient) get(url string) ([]byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// getJSON fetches a URL and decodes its JSON body into v.
func (c apiClient) getJSON(url string, v any) error {
	raw, err := c.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// runtimeStats reads the daemon's cumulative heap allocation count and GC
// CPU fraction from the runtime.MemStats block its pprof heap profile ends
// with.
func (d *daemon) runtimeStats() (mallocs uint64, gcFrac float64, err error) {
	raw, err := d.get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseUint(v, 10, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			gcFrac, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("pprof heap: %w", err)
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("pprof heap: MemStats block not found")
	}
	return mallocs, gcFrac, nil
}
