package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"desync/internal/designs"
	"desync/internal/flowserv"
	"desync/internal/stdcells"
)

// Job classes of the serve schedule. A hit repeats a request the same
// client already completed; an ECO is a fresh upload one cell away from a
// cached one; a known failure reproduces a defect the notes record.
const (
	classFresh     = "fresh"
	classHit       = "hit"
	classECO       = "eco"
	classKnownFail = "known-fail"
)

// knownFailure is the message of the ctrlnet cross-check defect on
// feistel pipelines: export claims a region successor the derivation of
// the exported netlist does not find.
const knownFailure = "claimed successors"

// serveEntry is one submission of a client's fixed schedule.
type serveEntry struct {
	// key names the request in digests, traces and per-input medians.
	key   string
	class string
	req   flowserv.JobRequest
	// golden is the request's case in internal/flowserv's golden table.
	golden string
	// variant marks requests whose outputs depend on the seed variant.
	variant bool
	// spec is the generator spec behind the request or its upload.
	spec string
}

// schedule is the serve workload for one seed: two clients, each with a
// fixed list of submissions. The clients share no request, so the class of
// every submission is fixed by the schedule, not by timing.
type schedule struct {
	variant int
	clients [2][]serveEntry
}

func newSchedule(seed int64) (*schedule, error) {
	v := variantOf(seed)
	s := &schedule{variant: v}
	u0spec := fmt.Sprintf("pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=%d", 101+v)
	u1spec := fmt.Sprintf("pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=%d", 201+v)
	f1spec := fmt.Sprintf("pipeline:depth=4,width=16,kind=feistel,fanout=balanced,seed=%d", 301+v)
	up := map[string]string{}
	for _, spec := range []string{u0spec, u1spec, f1spec} {
		text, err := flatVerilog(spec)
		if err != nil {
			return nil, err
		}
		up[spec] = text
	}
	e0, err := ecoEdit(up[u0spec], 37*v+11)
	if err != nil {
		return nil, err
	}
	e1, err := ecoEdit(up[u1spec], 53*v+5)
	if err != nil {
		return nil, err
	}
	gen := func(key, spec string, opts flowserv.FlowOptions, golden string) serveEntry {
		return serveEntry{key: key, class: classFresh, req: flowserv.JobRequest{Gen: spec, Options: opts}, golden: golden, spec: spec}
	}
	upload := func(key, spec, text string) serveEntry {
		return serveEntry{key: key, class: classFresh, req: flowserv.JobRequest{Verilog: text}, variant: true, spec: spec}
	}
	eco := func(e serveEntry) serveEntry {
		e.class = classECO
		return e
	}
	fail := func(e serveEntry) serveEntry {
		e.class = classKnownFail
		return e
	}
	twophase := flowserv.FlowOptions{Backend: "twophase"}
	withEquiv := flowserv.FlowOptions{Equiv: true}
	s.clients[0] = withHits(
		gen("dlx+equiv", "dlx", withEquiv, "dlx"),
		gen("fir", "fir", flowserv.FlowOptions{}, "fir"),
		gen("riscv", "riscv", flowserv.FlowOptions{}, ""),
		upload("u0", u0spec, up[u0spec]),
		eco(upload("u0-eco", u0spec, e0)),
		fail(gen("des", "des", flowserv.FlowOptions{}, "")),
		gen("fir+twophase", "fir", twophase, ""),
	)
	s.clients[1] = withHits(
		gen("arm", "arm", flowserv.FlowOptions{}, "arm"),
		gen("pipeline-small", "pipeline:depth=4,width=8,regions=6", flowserv.FlowOptions{}, "pipeline"),
		gen("dlx+twophase", "dlx", twophase, ""),
		gen("arm+equiv", "arm", withEquiv, ""),
		upload("u1", u1spec, up[u1spec]),
		eco(upload("u1-eco", u1spec, e1)),
		fail(upload("feistel", f1spec, up[f1spec])),
	)
	return s, nil
}

// withHits follows every fresh submission with one repeat by the same
// client, the mix of drserve -loadtest, whose default two rounds submit
// each design twice.
func withHits(entries ...serveEntry) []serveEntry {
	var out []serveEntry
	for _, e := range entries {
		out = append(out, e)
		if e.class == classFresh {
			h := e
			h.class = classHit
			out = append(out, h)
		}
	}
	return out
}

// classCounts tallies the schedule's submissions by class.
func (s *schedule) classCounts() map[string]int {
	n := map[string]int{}
	for _, c := range s.clients {
		for _, e := range c {
			n[e.class]++
		}
	}
	return n
}

// digestKey names one artifact of a fresh or ECO run.
func (s *schedule) digestKey(d *digests, e serveEntry, art string) string {
	if e.golden != "" {
		if k := "serve-golden " + e.golden + " " + art; d.golden[k] {
			return k
		}
	}
	if e.variant {
		return fmt.Sprintf("serve v%d %s %s", s.variant, e.key, art)
	}
	return fmt.Sprintf("serve %s %s", e.key, art)
}

// serveJob is one client-side record of a submission's lifecycle.
type serveJob struct {
	entry    serveEntry
	id       string
	err      error
	known    bool // failed exactly as the known defect does
	t0       time.Time
	submit   time.Duration // POST round trip
	events   []eventArrival
	terminal time.Duration // terminal event's arrival, from t0
	total    time.Duration // through the last artifact fetched
	arts     map[string][]byte
}

type eventArrival struct {
	ev flowserv.Event
	at time.Duration
}

// ok reports whether the job succeeded with checked outputs.
func (j *serveJob) ok() bool { return j.err == nil && !j.known }

// passResult is one schedule pass against one fresh server.
type passResult struct {
	jobs       []*serveJob
	wall       time.Duration
	stats      flowserv.ServerStats
	rejected   int
	retainedMB float64
	// peakMB is the process's peak RSS during the pass.
	peakMB float64
}

// runPass starts a job server on a loopback port, drives both clients
// through their schedules, collects /stats and drains the server. With
// measureRetained it also measures the heap the server keeps: the live
// heap with the server still up minus the live heap once it is gone.
func (b *bench) runPass(ctx context.Context, s *schedule, measureRetained bool) (*passResult, error) {
	goroutines := runtime.NumGoroutine()
	url, stop, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	defer stop()
	hc := &http.Client{}

	pr := &passResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fresh := map[string]map[string][]byte{}
			for _, e := range s.clients[c] {
				j, rejected := b.submit(ctx, hc, url, s, e, fresh)
				mu.Lock()
				pr.jobs = append(pr.jobs, j)
				pr.rejected += rejected
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)
	if err := getJSON(ctx, hc, url+"/stats", &pr.stats); err != nil {
		return nil, err
	}
	var withServer uint64
	if measureRetained {
		withServer = liveHeap()
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("server drain: %w", err)
	}
	if measureRetained {
		// The server's connection goroutines may still be exiting after
		// the drain returns; until they have, the server is reachable.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if without := liveHeap(); withServer > without {
			pr.retainedMB = float64(withServer-without) / (1 << 20) / float64(len(pr.jobs))
		}
	}
	return pr, nil
}

// startServer runs a job server in its default configuration on a
// loopback port. stop drains it and returns once it has shut down; it may
// be called more than once.
func startServer(ctx context.Context) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- flowserv.New(flowserv.Config{}).Serve(sctx, ln) }()
	return "http://" + ln.Addr().String(), sync.OnceValue(func() error {
		cancel()
		return <-served
	}), nil
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// submit drives one submission: POST, follow the NDJSON events to the
// terminal one, then fetch every artifact. Fresh artifacts are checked
// against their pinned digests and kept so the client's later hits can be
// held byte for byte against them.
func (b *bench) submit(ctx context.Context, hc *http.Client, url string, s *schedule, e serveEntry,
	fresh map[string]map[string][]byte) (*serveJob, int) {
	j := &serveJob{entry: e, t0: time.Now()}
	body, err := json.Marshal(e.req)
	if err != nil {
		j.err = err
		return j, 0
	}
	rejected := 0
	var st flowserv.Status
	for {
		resp, err := postJSON(ctx, hc, url+"/jobs", body)
		if err != nil {
			j.err = err
			return j, rejected
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			rejected++
			time.Sleep(20 * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, st.Error)
		}
		if err != nil {
			j.err = fmt.Errorf("%s: submit: %w", e.key, err)
			return j, rejected
		}
		break
	}
	j.id = st.ID
	j.submit = time.Since(j.t0)
	if err := j.follow(ctx, hc, url); err != nil {
		j.err = fmt.Errorf("%s: %w", e.key, err)
		return j, rejected
	}
	j.terminal = time.Since(j.t0)
	if err := getJSON(ctx, hc, url+"/jobs/"+j.id, &st); err != nil {
		j.err = err
		return j, rejected
	}
	j.arts = map[string][]byte{}
	for _, name := range st.Artifacts {
		data, err := getBytes(ctx, hc, url+"/jobs/"+j.id+"/artifacts/"+name)
		if err != nil {
			j.err = err
			return j, rejected
		}
		j.arts[name] = data
	}
	j.total = time.Since(j.t0)
	j.err = b.checkServeJob(s, j, st, fresh)
	return j, rejected
}

// follow reads the job's event stream to its terminal event, recording
// when each event arrived.
func (j *serveJob) follow(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/jobs/"+j.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev flowserv.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		j.events = append(j.events, eventArrival{ev: ev, at: time.Since(j.t0)})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n := len(j.events); n == 0 || !terminalKind(j.events[n-1].ev.Kind) {
		return fmt.Errorf("event stream ended without a terminal event")
	}
	return nil
}

func terminalKind(k string) bool {
	return k == flowserv.StateDone || k == flowserv.StateFailed || k == flowserv.StateCanceled
}

// checkServeJob verifies one finished submission against its class.
func (b *bench) checkServeJob(s *schedule, j *serveJob, st flowserv.Status, fresh map[string]map[string][]byte) error {
	e := j.entry
	if e.class == classKnownFail {
		if st.State == flowserv.StateFailed && strings.Contains(st.Error, knownFailure) {
			j.known = true
			return nil
		}
		if st.State != flowserv.StateDone || len(j.arts) == 0 {
			return fmt.Errorf("%s: ended %s (%s), want the known %q failure", e.key, st.State, st.Error, knownFailure)
		}
		// The defect no longer reproduces: a success whose outputs are
		// checked like any other's, so they need pinning (-pin) first.
	} else if st.State != flowserv.StateDone {
		return fmt.Errorf("%s: ended %s: %s", e.key, st.State, st.Error)
	}
	if (e.class == classHit) != st.Cached {
		return fmt.Errorf("%s: cached=%v for a %s submission", e.key, st.Cached, e.class)
	}
	if e.class == classHit {
		want := fresh[e.key]
		if len(want) != len(j.arts) {
			return fmt.Errorf("%s: hit has %d artifacts, fresh run had %d", e.key, len(j.arts), len(want))
		}
		for name, data := range j.arts {
			if !bytes.Equal(want[name], data) {
				return fmt.Errorf("%s: hit artifact %s differs from the fresh run's", e.key, name)
			}
		}
		return nil
	}
	for name, data := range j.arts {
		if err := b.digests.check(s.digestKey(b.digests, e, name), data); err != nil {
			return err
		}
	}
	fresh[e.key] = j.arts
	return nil
}

func postJSON(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return hc.Do(req)
}

func getBytes(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	data, err := getBytes(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// setupServe generates the schedule's uploads, starts a server, waits for
// /healthz and runs a warm-up submission and its cache hit, then drains
// the server; it returns the schedule and the time all that took.
func (b *bench) setupServe(ctx context.Context, seed int64) (*schedule, float64, error) {
	start := time.Now()
	s, err := newSchedule(seed)
	if err != nil {
		return nil, 0, err
	}
	url, stop, err := startServer(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer stop()
	hc := &http.Client{}
	var health map[string]string
	if err := getJSON(ctx, hc, url+"/healthz", &health); err != nil {
		return nil, 0, err
	}
	// The warm-up is a DLX run and its cache hit; DLX without options is
	// not in the schedule.
	for i := 0; i < 2; i++ {
		resp, err := postJSON(ctx, hc, url+"/jobs", []byte(`{"gen":"dlx"}`))
		if err != nil {
			return nil, 0, err
		}
		var st flowserv.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		j := &serveJob{id: st.ID, t0: time.Now()}
		if err := j.follow(ctx, hc, url); err != nil {
			return nil, 0, err
		}
		if last := j.events[len(j.events)-1].ev.Kind; last != flowserv.StateDone {
			return nil, 0, fmt.Errorf("warm-up job ended %s", last)
		}
	}
	if err := stop(); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// serveTotals aggregates the passes of one run.
type serveTotals struct {
	passes                 []*passResult
	wall                   time.Duration
	ok, known, unexpected  int
	attempted              int
	latency                map[string][]float64 // by class, successful jobs
	perEntry               map[string][]float64 // by key#class, successful jobs
	allocBytes, cpuSeconds float64
}

// minServePasses is the fewest passes a serve run makes: each entry runs
// once per pass, so its median rests on at least that many samples. A pass
// takes about 2.5 s on the shared 2-vCPU host of README.md at its slow
// speed, so a run's length is set by its measuring time, not by this floor.
const minServePasses = 6

// runServePasses runs whole schedule passes, each against a fresh server,
// until the measuring time is spent and at least minServePasses are done.
// Each server keeps every job it ran, so a pass has a fixed job count and
// the heap cannot grow with time.
func (b *bench) runServePasses(ctx context.Context, s *schedule, res *result, measureRetained bool) (*serveTotals, error) {
	tot := &serveTotals{latency: map[string][]float64{}, perEntry: map[string][]float64{}}
	sample := []metrics.Sample{{Name: allocMetric}}
	start := time.Now()
	for len(tot.passes) < minServePasses || time.Since(start) < b.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := b.speed.tick(); err != nil {
			return nil, err
		}
		// Each pass starts with the heap collected and returned to the
		// system and the peak RSS reset, so its peak is its own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		// CPU time and allocations are counted over the passes alone,
		// without the reference kernel's turns between them.
		cpu0, alloc0 := processCPU(), heapAllocs(sample)
		pr, err := b.runPass(ctx, s, measureRetained)
		if err != nil {
			return nil, err
		}
		tot.cpuSeconds += processCPU() - cpu0
		tot.allocBytes += float64(heapAllocs(sample) - alloc0)
		if pr.peakMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		tot.passes = append(tot.passes, pr)
		tot.wall += pr.wall
		for _, j := range pr.jobs {
			// Only the first pass's fresh artifacts are needed later (the
			// traced run holds the replica against them); holding every
			// pass's bytes would inflate the heap the passes run on.
			if len(tot.passes) > 1 || j.entry.class == classHit {
				j.arts = nil
			}
			tot.attempted++
			switch {
			case j.err != nil:
				tot.unexpected++
				res.fail(j.err)
			case j.known:
				tot.known++
			default:
				tot.ok++
				sec := j.total.Seconds()
				tot.latency[j.entry.class] = append(tot.latency[j.entry.class], sec)
				tot.perEntry[j.entry.key+"#"+j.entry.class] = append(tot.perEntry[j.entry.key+"#"+j.entry.class], sec)
			}
		}
	}
	res.attempted += tot.attempted
	return tot, nil
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS sets the process's peak RSS back to its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak RSS since the last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// medianPeakMB is the median over the passes of each pass's peak RSS.
func (tot *serveTotals) medianPeakMB() float64 {
	peaks := make([]float64, len(tot.passes))
	for i, pr := range tot.passes {
		peaks[i] = pr.peakMB
	}
	return median(peaks)
}

// classMetrics are the per-class latencies and failure shares of a run.
func (tot *serveTotals) classMetrics(add func(name string, v float64, unit string)) {
	add("flowserv.hit_s_p50", median(tot.latency[classHit]), "s")
	add("flowserv.hit_s_p90", percentile(tot.latency[classHit], 90), "s")
	add("flowserv.fresh_s_p50", median(tot.latency[classFresh]), "s")
	add("flowserv.eco_s_p50", median(tot.latency[classECO]), "s")
	add("flowserv.alloc_mb_per_job", tot.allocBytes/(1<<20)/float64(max(tot.ok, 1)), "MB")
	add("fail_ratio", float64(tot.known+tot.unexpected)/float64(tot.attempted), "ratio")
}

// runServeWorkload is the untraced serve run.
func (b *bench) runServeWorkload(ctx context.Context, seed int64) (*result, error) {
	res := newResult()
	var s *schedule
	setup, err := b.repeatSetup(func() (sec float64, err error) {
		s, sec, err = b.setupServe(ctx, seed)
		return sec, err
	})
	if err != nil {
		return nil, err
	}
	tot, err := b.runServePasses(ctx, s, res, false)
	if err != nil {
		return nil, err
	}
	res.add("setup_s", setup, "s")
	res.add("jobs_per_s", float64(tot.ok)/tot.wall.Seconds(), "1/s")
	res.add("job_s_p50", medianOfGroups(tot.perEntry), "s")
	res.add("cpu_s_per_job", tot.cpuSeconds/float64(max(tot.ok, 1)), "s")
	res.add("peak_rss_mb", tot.medianPeakMB(), "MB")
	tot.classMetrics(res.addInfo)
	counts := s.classCounts()
	res.notef("%d passes of %d jobs (%d fresh, %d hit, %d eco, %d known-fail per pass) in %.2f s; %d hits sampled for p90",
		len(tot.passes), len(tot.passes[0].jobs), counts[classFresh], counts[classHit], counts[classECO], counts[classKnownFail],
		tot.wall.Seconds(), len(tot.latency[classHit]))
	return res, nil
}

// traceServeWorkload is the traced serve run: the same passes with every
// job's event arrivals recorded as spans, the server's counters and the
// heap it retains, then the replica over every distinct request the
// schedule runs fresh, held byte for byte against the server's artifacts.
func (b *bench) traceServeWorkload(ctx context.Context, seed int64) (*result, *tracer, error) {
	res := newResult()
	var s *schedule
	if _, err := b.repeatSetup(func() (sec float64, err error) {
		s, sec, err = b.setupServe(ctx, seed)
		return sec, err
	}); err != nil {
		return nil, nil, err
	}
	tot, err := b.runServePasses(ctx, s, res, true)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer()
	flow := map[string]map[string][]float64{}
	addFlow := func(metric, group string, d time.Duration) {
		if flow[metric] == nil {
			flow[metric] = map[string][]float64{}
		}
		flow[metric][group] = append(flow[metric][group], d.Seconds())
	}
	var hits, misses, failed, rejected, retained []float64
	for _, pr := range tot.passes {
		for _, j := range pr.jobs {
			recordServeSpans(t, j)
			if !j.ok() {
				continue
			}
			group := j.entry.key + "#" + j.entry.class
			addFlow("flowserv.submit_s", group, j.submit)
			addFlow("flowserv.fetch_s", group, j.total-j.terminal)
			if j.entry.class != classHit {
				q, r := j.queueRun()
				addFlow("flowserv.queue_s", group, q)
				addFlow("flowserv.run_s", group, r)
			}
		}
		hits = append(hits, float64(pr.stats.Cache.Hits))
		misses = append(misses, float64(pr.stats.Cache.Misses))
		failed = append(failed, float64(pr.stats.Failed))
		rejected = append(rejected, float64(pr.rejected))
		retained = append(retained, pr.retainedMB)
	}
	res.add("flowserv.hits", median(hits), "count")
	res.add("flowserv.misses", median(misses), "count")
	res.add("flowserv.failed", median(failed), "count")
	res.add("flowserv.rejected", median(rejected), "count")
	res.add("flowserv.retained_mb_per_job", median(retained), "MB")
	tot.classMetrics(res.add)

	// The replica over the distinct successful fresh and ECO requests of
	// the first pass, untraced then traced.
	acc := newLayerAcc(t)
	for _, j := range tot.passes[0].jobs {
		if !j.ok() || j.entry.class == classHit {
			continue
		}
		if err := b.speed.tick(); err != nil {
			return nil, nil, err
		}
		res.attempted += 2
		if err := acc.runPair(ctx, serveReplicaInput(j.entry), j.arts, false); err != nil {
			res.fail(err)
		}
	}
	acc.report(res)
	for metric, groups := range flow {
		res.add(metric, medianOfGroups(groups), "s")
	}
	return res, t, nil
}

// queueRun splits a job's server time at its start event: waiting in the
// queue before it, running the flow after it until the terminal event.
func (j *serveJob) queueRun() (queue, run time.Duration) {
	var submitted, started time.Duration
	for _, a := range j.events {
		switch a.ev.Kind {
		case "submitted":
			submitted = a.at
		case "start":
			started = a.at
		}
	}
	return started - submitted, j.terminal - started
}

// recordServeSpans turns one job's client-side timeline into spans: the
// submit round trip, the queue wait, the flow run and the artifact fetch.
// The stages inside the run are timed by the replica, not here: events of
// phases finished before the stream opens arrive together.
func recordServeSpans(t *tracer, j *serveJob) {
	t.startJob("serve:" + j.entry.key + "#" + j.entry.class)
	base := j.t0.Sub(t.origin)
	root := len(t.spans)
	t.addSpan(span{name: "flowserv.job", job: t.job, parent: -1, start: base, end: base + j.total})
	if j.total == 0 {
		t.spans[root].end = base + j.terminal
	}
	t.addSpan(span{name: "flowserv.submit", job: t.job, parent: root, start: base, end: base + j.submit})
	q, r := j.queueRun()
	if j.entry.class != classHit && len(j.events) > 0 {
		started := j.terminal - r
		t.addSpan(span{name: "flowserv.queue", job: t.job, parent: root, start: base + started - q, end: base + started})
		t.addSpan(span{name: "flowserv.run", job: t.job, parent: root, start: base + started, end: base + j.terminal})
	}
	if j.total > 0 {
		t.addSpan(span{name: "flowserv.fetch", job: t.job, parent: root, start: base + j.terminal, end: base + j.total})
	}
}

// serveReplicaInput describes a request the way the job server runs it:
// period derived from STA, the request's backend and gates, pre-grouped
// generators on manual grouping, ARM on the Low-Leakage library.
func serveReplicaInput(e serveEntry) replicaInput {
	lib := stdcells.HighSpeed
	if e.req.Gen == "arm" {
		lib = stdcells.LowLeakage
	}
	in := replicaInput{
		name: e.key, spec: e.spec, text: e.req.Verilog, lib: stdcells.New(lib),
		backend: e.req.Options.Backend, derivePeriod: true, equiv: e.req.Options.Equiv,
	}
	if in.backend == "" {
		in.backend = "desync"
	}
	if e.req.Gen != "" {
		in.manualGroups = designs.PreGrouped(e.req.Gen)
	}
	return in
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
