package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"noceval/internal/sim"
)

// The service workload drives nocd, started as a subprocess with a fresh
// cache directory, from two closed-loop clients: each submits a spec and
// waits on the job's event stream before it submits the next, as an
// experiment script does. Every generated spec is a small 4x4 mesh run.
const (
	serviceClients = 2
	serviceWorkers = 2
	serviceNodes   = 16
)

// rssAfterJobs is how many completed submissions peak_rss_mb covers.
// nocd keeps every finished job, so its memory grows with the jobs it
// has served; reading its peak after a fixed number of them, instead of
// at the end of a fixed time, keeps host speed out of the figure. A run
// on a typical 2-core host completes about twice this many.
const rssAfterJobs = 800

// rssProbe reads nocd's peak RSS once the clients have completed
// rssAfterJobs submissions between them.
type rssProbe struct {
	pid  int
	done atomic.Int64
	once sync.Once
	mb   float64
	err  error
}

func (p *rssProbe) completed() {
	if p.done.Add(1) == rssAfterJobs {
		p.once.Do(func() { p.mb, p.err = peakRSSMB(p.pid) })
	}
}

// nocd is one running service process.
type nocd struct {
	cmd  *exec.Cmd
	base string
}

// startNocd launches nocd and returns it once /healthz answers 200, with
// the CPU time nocd used to get there and the wall time from launch.
func startNocd(path, cacheDir string) (n *nocd, cpu, wall float64, err error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-cache", "-cache-dir", cacheDir,
		"-workers", strconv.Itoa(serviceWorkers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("starting nocd: %w", err)
	}
	n = &nocd{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "nocd listening on ")
	if err != nil || !ok {
		n.kill()
		return nil, 0, 0, fmt.Errorf("nocd printed %q instead of its address", line)
	}
	n.base = addr
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(n.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				wall = time.Since(start).Seconds()
				ns, err := n.runNS()
				if err != nil {
					n.kill()
					return nil, 0, 0, err
				}
				return n, ns / 1e9, wall, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			n.kill()
			return nil, 0, 0, fmt.Errorf("nocd /healthz not ready after 30 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuSeconds returns the CPU time nocd has used so far, from
// /proc/<pid>/stat (clock ticks; exited threads included).
func (n *nocd) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", data)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; 100 on Linux.
const clockTicks = 100

// runNS sums the nanosecond run time of nocd's threads from their
// schedstat, precise enough to time its set-up.
func (n *nocd) runNS() (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", n.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for nocd: %v", err)
	}
	var sum float64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", p)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (n *nocd) kill() {
	n.cmd.Process.Kill()
	n.cmd.Wait()
}

// stop drains nocd with SIGTERM and waits for it to exit.
func (n *nocd) stop() error {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		n.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		n.cmd.Process.Kill()
		<-done
		return fmt.Errorf("nocd did not drain within 20 s")
	}
}

// jobView is the part of the service's job JSON the benchmark reads.
type jobView struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	SubmittedAt   string `json:"submittedAt"`
	StartedAt     string `json:"startedAt"`
	FinishedAt    string `json:"finishedAt"`
	Result        string `json:"result"`
	Error         string `json:"error"`
	CoalescedOnto bool   `json:"coalescedOnto"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// msBetween returns b-a in milliseconds for two RFC 3339 timestamps.
func msBetween(a, b string) (float64, bool) {
	ta, errA := time.Parse(time.RFC3339Nano, a)
	tb, errB := time.Parse(time.RFC3339Nano, b)
	if errA != nil || errB != nil {
		return 0, false
	}
	return float64(tb.Sub(ta).Nanoseconds()) / 1e6, true
}

// Input classes of the submission stream.
const (
	classUnique    = "unique"    // a new spec: simulated, then written to the cache
	classRepeat    = "repeat"    // a spec this client already finished: read from the cache
	classDuplicate = "duplicate" // a spec still in flight: coalesced onto its job
)

type submission struct {
	class  string
	ok     bool
	latMS  float64 // from the POST until the client sees the terminal state
	rttMS  float64 // POST round trip
	view   jobView // the terminal state
	seenAt time.Time
}

type finishedSpec struct {
	body   []byte
	result string
}

// svcClient is one closed-loop client with its own connection and its
// own input stream, derived from the workload seed.
type svcClient struct {
	id       int
	base     string
	hc       *http.Client
	rng      *sim.RNG
	salt     uint64
	uniq     uint64
	finished []finishedSpec
	subs     []submission
	errs     []string
	tr       *tracer
	jobs     int64
	rss      *rssProbe
	// ops and kinds are the rest of the current shuffled block of
	// operation classes and spec kinds. Drawing in blocks keeps every
	// run's mix at its intended shares, so seeds change the order and
	// sizes of the inputs but not the mix the metrics depend on.
	ops, kinds []int
}

func newClients(base string, seed uint64, rss *rssProbe) []*svcClient {
	salt := sim.NewRNG(seed).Uint64() &^ (1<<40 - 1)
	var cs []*svcClient
	for i := 0; i < serviceClients; i++ {
		cs = append(cs, &svcClient{
			id:   i,
			base: base,
			hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			}},
			rng:  sim.NewRNG(seed*uint64(serviceClients) + uint64(i) + 1),
			salt: salt,
			rss:  rss,
		})
	}
	return cs
}

// newSpec returns a spec no earlier submission used. Its kind and size
// come from the client's stream; each costs roughly 20-70 ms cold.
func (c *svcClient) newSpec() []byte {
	c.uniq++
	seed := c.salt | uint64(c.id)<<32 | c.uniq
	net := fmt.Sprintf(`{"Topology":"mesh4x4","VCs":2,"BufDepth":8,"RouterDelay":1,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":%d}`, seed)
	if len(c.kinds) == 0 {
		c.kinds = c.rng.Perm(4)
	}
	kind := c.kinds[0]
	c.kinds = c.kinds[1:]
	switch kind {
	case 0:
		return []byte(fmt.Sprintf(`{"kind":"openloop","network":%s,"rate":%s,"warmup":2000,"measure":%d}`,
			net, pick(c.rng, "0.10", "0.15", "0.20", "0.25", "0.30"), 2000+500*c.rng.Intn(4)))
	case 1:
		return []byte(fmt.Sprintf(`{"kind":"sweep","network":%s,"rates":%s,"warmup":1000,"measure":1500}`,
			net, pick(c.rng, "[0.10,0.20]", "[0.15,0.25]", "[0.20,0.30]")))
	case 2:
		return []byte(fmt.Sprintf(`{"kind":"batch","network":%s,"b":%d,"m":%d}`,
			net, 300+100*c.rng.Intn(4), []int{1, 2, 4}[c.rng.Intn(3)]))
	default:
		return []byte(fmt.Sprintf(`{"kind":"barrier","network":%s,"b":%d,"phases":%d}`,
			net, 100+50*c.rng.Intn(3), 3+c.rng.Intn(3)))
	}
}

func pick(rng *sim.RNG, choices ...string) string { return choices[rng.Intn(len(choices))] }

// loop runs the client's stream until the deadline. Every block of nine
// operations holds six unique specs, two repeats and one unique spec
// submitted twice, so that of ten submissions seven are unique, two
// repeats and one a duplicate of a job in flight.
func (c *svcClient) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.jobs++
		if len(c.ops) == 0 {
			c.ops = c.rng.Perm(9)
		}
		x := c.ops[0]
		c.ops = c.ops[1:]
		switch {
		case x < 6:
			c.unique(false)
		case x < 8 && len(c.finished) > 0:
			c.repeat()
		case x < 8:
			c.unique(false)
		default:
			c.unique(true)
		}
	}
}

func (c *svcClient) record(s submission, format string, args ...any) {
	if !s.ok && len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf("client %d %s: ", c.id, s.class)+fmt.Sprintf(format, args...))
	}
	if s.ok {
		c.rss.completed()
	}
	c.subs = append(c.subs, s)
}

// unique submits a new spec and waits for it; with dup it submits the
// same spec again while the first is in flight, which must coalesce onto
// the same job. If the first job finished before the second submission
// arrived, the second is a repeat instead: it must have started after the
// first finished and return the identical result.
func (c *svcClient) unique(dup bool) {
	body := c.newSpec()
	t0 := time.Now()
	sr, status, rtt, err := c.submit(body)
	first := submission{class: classUnique, rttMS: rtt}
	if err != nil || status != http.StatusAccepted || sr.CoalescedOnto {
		c.record(first, "submit: status %d, coalesced %v, err %v", status, sr.CoalescedOnto, err)
		if dup {
			c.record(submission{class: classDuplicate}, "first submission failed")
		}
		return
	}
	var second jobView
	var status2 int
	var rtt2 float64
	var err2 error
	var t1 time.Time
	if dup {
		t1 = time.Now()
		second, status2, rtt2, err2 = c.submit(body)
	}
	view, seen, err := c.wait(sr.ID)
	first.view, first.seenAt = view, seen
	first.latMS = float64(seen.Sub(t0).Nanoseconds()) / 1e6
	first.ok = err == nil && view.State == "done" && view.Result != ""
	c.record(first, "job %s ended %q: %v %s", sr.ID, view.State, err, view.Error)
	if first.ok {
		c.finished = append(c.finished, finishedSpec{body, view.Result})
	}
	if !dup {
		return
	}
	s := submission{class: classDuplicate, rttMS: rtt2}
	switch {
	case err2 == nil && status2 == http.StatusOK && second.CoalescedOnto && second.ID == sr.ID:
		s.view, s.seenAt = view, seen
		s.latMS = float64(seen.Sub(t1).Nanoseconds()) / 1e6
		s.ok = first.ok
		c.record(s, "job %s ended %q", sr.ID, view.State)
	case err2 == nil && status2 == http.StatusAccepted && !second.CoalescedOnto:
		s.class = classRepeat
		if gap, ok := msBetween(view.FinishedAt, second.SubmittedAt); !ok || gap < 0 {
			c.record(s, "job %s started at %s while identical job %s was in flight until %s",
				second.ID, second.SubmittedAt, sr.ID, view.FinishedAt)
			return
		}
		v2, seen2, err := c.wait(second.ID)
		s.view, s.seenAt = v2, seen2
		s.latMS = float64(seen2.Sub(t1).Nanoseconds()) / 1e6
		s.ok = err == nil && v2.State == "done" && v2.Result == view.Result
		c.record(s, "job %s ended %q, result identical %v: %v", second.ID, v2.State, v2.Result == view.Result, err)
	default:
		c.record(s, "duplicate got job %q status %d coalesced %v, want %q: %v", second.ID, status2, second.CoalescedOnto, sr.ID, err2)
	}
}

// repeat resubmits a finished spec; its result must be byte-identical.
func (c *svcClient) repeat() {
	f := c.finished[c.rng.Intn(len(c.finished))]
	t0 := time.Now()
	sr, status, rtt, err := c.submit(f.body)
	s := submission{class: classRepeat, rttMS: rtt}
	if err != nil || status != http.StatusAccepted || sr.CoalescedOnto {
		c.record(s, "submit: status %d, coalesced %v, err %v", status, sr.CoalescedOnto, err)
		return
	}
	view, seen, err := c.wait(sr.ID)
	s.view, s.seenAt = view, seen
	s.latMS = float64(seen.Sub(t0).Nanoseconds()) / 1e6
	s.ok = err == nil && view.State == "done" && view.Result == f.result
	c.record(s, "job %s ended %q, result identical %v: %v", sr.ID, view.State, view.Result == f.result, err)
}

func (c *svcClient) submit(body []byte) (jobView, int, float64, error) {
	id := c.tr.begin("POST /jobs", 0, c.spanJob())
	defer c.tr.end(id)
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobView{}, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return jobView{}, resp.StatusCode, rtt, err
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return jobView{}, resp.StatusCode, rtt, fmt.Errorf("decoding %q: %w", data, err)
	}
	return v, resp.StatusCode, rtt, nil
}

// wait follows the job's event stream until a terminal state and returns
// it with the time the client saw it.
func (c *svcClient) wait(id string) (jobView, time.Time, error) {
	sid := c.tr.begin("GET /jobs/{id}/events", 0, c.spanJob())
	defer c.tr.end(sid)
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return jobView{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, time.Time{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var v jobView
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			return jobView{}, time.Time{}, err
		}
		if terminal(v.State) {
			seen := time.Now()
			io.Copy(io.Discard, resp.Body)
			return v, seen, nil
		}
	}
	return jobView{}, time.Time{}, fmt.Errorf("event stream ended without a terminal state: %v", sc.Err())
}

// spanJob numbers a client's operations for its spans.
func (c *svcClient) spanJob() int64 { return int64(c.id)<<32 | c.jobs }

// metricsSnapshot reads nocd's /metrics.json as name -> value.
func metricsSnapshot(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: status %d", resp.StatusCode)
	}
	var points []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&points); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	m := map[string]float64{}
	for _, p := range points {
		m[p.Name] = p.Value
	}
	return m, nil
}

// segment is one timed stretch of the client loops.
type segment struct {
	subs          []submission
	elapsed       float64 // wall seconds
	cpu           float64 // nocd CPU seconds
	before, after map[string]float64
}

func (s *segment) delta(name string) float64 { return s.after[name] - s.before[name] }

// routerCycles is the router-cycles nocd simulated in the segment, read
// from its engine counters; skipped cycles count, as in the simulation
// workloads.
func (s *segment) routerCycles() float64 {
	return (s.delta("engine.cycles_stepped") + s.delta("engine.cycles_fastforwarded")) * serviceNodes
}

func (s *segment) routerCyclesPerCPUS() float64 { return ratio{s.routerCycles(), s.cpu}.Value() }

// latencies returns the submit-to-terminal latencies of the successful
// submissions of the given classes (all classes when none are given).
func (s *segment) latencies(classes ...string) []float64 {
	var ms []float64
	for _, sub := range s.subs {
		if sub.ok && (len(classes) == 0 || slices.Contains(classes, sub.class)) {
			ms = append(ms, sub.latMS)
		}
	}
	return ms
}

func runSegment(clients []*svcClient, mc *http.Client, srv *nocd, budget time.Duration, tr *tracer) (*segment, error) {
	seg := &segment{}
	var err error
	if seg.before, err = metricsSnapshot(mc, srv.base); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	marks := make([]int, len(clients))
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for i, c := range clients {
		marks[i] = len(c.subs)
		c.tr = tr
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	seg.elapsed = time.Since(start).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	seg.cpu = cpu1 - cpu0
	for i, c := range clients {
		seg.subs = append(seg.subs, c.subs[marks[i]:]...)
	}
	if seg.after, err = metricsSnapshot(mc, srv.base); err != nil {
		return nil, err
	}
	return seg, nil
}

func runServiceWorkload(rc *runCtx) (*outcome, error) {
	out := newOutcome()
	runDir := filepath.Join(rc.workDir, "service", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up several times, each from a fresh process on an empty cache;
	// the last server is the one measured.
	launches := setupLaunches
	if rc.trace {
		launches = 1
	}
	var setupCPU, setupWall []float64
	var srv *nocd
	for i := 0; i < launches; i++ {
		n, cpu, wall, err := startNocd(rc.nocdPath, filepath.Join(runDir, fmt.Sprintf("cache%d", i)))
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, cpu)
		setupWall = append(setupWall, wall)
		if i < launches-1 {
			// A set-up server has no jobs to drain, and nocd answers
			// /healthz before it installs its SIGTERM handler, so a
			// SIGTERM sent this early can kill it uncleanly. The measured
			// server is drained with SIGTERM at the end of the run.
			n.kill()
			continue
		}
		srv = n
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	probe := &rssProbe{pid: srv.cmd.Process.Pid}
	clients := newClients(srv.base, rc.seed, probe)
	mc := &http.Client{Timeout: 10 * time.Second}
	var segs []*segment
	if rc.trace {
		for _, part := range []struct {
			share float64
			tr    *tracer
		}{{shareUntraced, nil}, {1 - shareUntraced, rc.tracer}} {
			seg, err := runSegment(clients, mc, srv, rc.budget(part.share), part.tr)
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg)
		}
	} else {
		seg, err := runSegment(clients, mc, srv, rc.budget(1), nil)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	// A run too short or too slow to reach rssAfterJobs reads the peak at
	// its end.
	probe.once.Do(func() { probe.mb, probe.err = peakRSSMB(probe.pid) })
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping nocd: %w", err)
	}
	if probe.err != nil {
		return nil, probe.err
	}

	for _, c := range clients {
		for _, e := range c.errs {
			if len(out.errors) < 20 {
				out.errors = append(out.errors, e)
			}
		}
	}
	for _, seg := range segs {
		for _, s := range seg.subs {
			out.attempted++
			if !s.ok {
				out.failed++
			}
		}
	}
	last := segs[len(segs)-1]
	noteShares(out, last)
	if !rc.trace {
		done := float64(len(last.latencies()))
		out.metrics["router_cycles_per_cpu_s"] = last.routerCyclesPerCPUS()
		out.metrics["jobs_per_cpu_s"] = ratio{done, last.cpu}.Value()
		out.metrics["peak_rss_mb"] = probe.mb
		out.note("peak_rss_mb is nocd's VmHWM after %d of %d completed submissions", min(rssAfterJobs, probe.done.Load()), probe.done.Load())
		out.metrics["setup_s"] = median(setupCPU)
		out.note("wall time: %.6g router-cycles/s, %.6g jobs/s over %.3f s (%.3f nocd CPU s)",
			last.routerCycles()/last.elapsed, done/last.elapsed, last.elapsed, last.cpu)
		out.note("set-up: median of %d nocd launches, %.6f CPU s, %.6f s wall from launch to /healthz 200",
			launches, median(setupCPU), median(setupWall))
		noteTail(out, "job wall", last.latencies())
		noteTail(out, "cached job wall", last.latencies(classRepeat))
		return out, nil
	}
	reportServiceLayers(out, last)
	reportOverhead(out, segs[0].routerCyclesPerCPUS(), last.routerCyclesPerCPUS())
	return out, nil
}

// noteShares prints the measured input shares of the stream.
func noteShares(out *outcome, seg *segment) {
	counts := map[string]float64{}
	for _, s := range seg.subs {
		counts[s.class]++
	}
	n := float64(len(seg.subs))
	out.note("input shares of %d submissions: unique %.3f, repeat %.3f, duplicate %.3f; expcache hits %.0f for %.0f repeats",
		len(seg.subs), ratio{counts[classUnique], n}.Value(), ratio{counts[classRepeat], n}.Value(),
		ratio{counts[classDuplicate], n}.Value(), seg.delta("expcache.hits"), counts[classRepeat])
}

func reportServiceLayers(out *outcome, seg *segment) {
	var cold, cached, rtt, queue, lag []float64
	for _, s := range seg.subs {
		rtt = append(rtt, s.rttMS)
		if !s.ok || s.class == classDuplicate {
			continue // a duplicate shares its job's timestamps
		}
		if run, ok := msBetween(s.view.StartedAt, s.view.FinishedAt); ok {
			if s.class == classRepeat {
				cached = append(cached, run)
			} else {
				cold = append(cold, run)
			}
		}
		if q, ok := msBetween(s.view.SubmittedAt, s.view.StartedAt); ok {
			queue = append(queue, q)
		}
		if fin, err := time.Parse(time.RFC3339Nano, s.view.FinishedAt); err == nil {
			lag = append(lag, float64(s.seenAt.Sub(fin).Nanoseconds())/1e6)
		}
	}
	set := func(name string, v float64) {
		if !math.IsNaN(v) { // an empty sample leaves the metric at 0
			out.metrics[name] = v
		}
	}
	set("core.cold_run_ms_p50", median(cold))
	set("core.cached_run_ms_p50", median(cached))
	set("service.submit_rtt_ms_p50", median(rtt))
	set("service.queue_wait_ms_p50", median(queue))
	set("service.queue_wait_ms_p95", quantile(queue, 0.95))
	set("service.notify_lag_ms_p50", median(lag))
	set("service.job_p50_ms", median(seg.latencies()))
	set("service.job_p95_ms", quantile(seg.latencies(), 0.95))
	set("service.cached_job_p50_ms", median(seg.latencies(classRepeat)))
	noteTail(out, "queue wait", queue)
	noteTail(out, "job", seg.latencies())

	hits, misses := seg.delta("expcache.hits"), seg.delta("expcache.misses")
	out.metrics["expcache.hits"] = hits
	out.metrics["expcache.misses"] = misses
	out.metrics["expcache.hit_ratio"] = ratio{hits, hits + misses}.Value()
	out.metrics["expcache.puts"] = seg.delta("expcache.puts")
	out.metrics["expcache.bytes_read"] = seg.delta("expcache.bytes_read")
	out.metrics["expcache.bytes_written"] = seg.delta("expcache.bytes_written")
	out.note("expcache.hit_ratio base %s lookups", ratio{hits, hits + misses})

	coalesce := ratio{seg.delta("service.jobs_coalesced"), seg.delta("service.jobs_submitted")}
	out.metrics["service.coalesce_ratio"] = coalesce.Value()
	out.note("service.coalesce_ratio base %s (jobs_coalesced / jobs_submitted)", coalesce)
	util := ratio{seg.delta("pool.busy_ns"), serviceWorkers * seg.elapsed * 1e9}
	out.metrics["pool.utilization"] = util.Value()
	out.note("pool.utilization base %s ns (busy / workers x wall)", util)

	stepped, skipped := seg.delta("engine.cycles_stepped"), seg.delta("engine.cycles_fastforwarded")
	out.metrics["engine.cycles_stepped"] = stepped
	out.metrics["engine.cycles_skipped"] = skipped
	out.metrics["engine.skip_ratio"] = ratio{skipped, stepped + skipped}.Value()
	out.note("engine.skip_ratio base %s cycles, from nocd's engine counters", ratio{skipped, stepped + skipped})
}
