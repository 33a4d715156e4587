package flowserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"desync/internal/cliutil"
	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// newTestServer mounts a Server on a real HTTP listener via httptest and
// runs its worker pool until the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.runJob(ctx, j)
			}
		}()
	}
	t.Cleanup(func() {
		s.beginDrain()
		cancel()
		wg.Wait()
	})
	return s, hs
}

func mustPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

func mustGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

func submitJob(t *testing.T, base, body string) Status {
	t.Helper()
	code, b := mustPost(t, base+"/jobs", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

// streamEvents follows the NDJSON feed to the terminal event and returns
// every event in order.
func streamEvents(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	var evs []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("events: %v", err)
		}
		evs = append(evs, ev)
	}
}

func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		_, b := mustGet(t, base+"/jobs/"+id)
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("status: %v", err)
		}
		if terminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobLifecycleE2E pushes one DLX submission through the whole HTTP
// lifecycle: accept, per-stage event stream in Stages order, artifact
// fetches, terminal status.
func TestJobLifecycleE2E(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	st := submitJob(t, hs.URL, `{"gen":"dlx"}`)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh submission state = %s", st.State)
	}
	if st.CacheKey == "" {
		t.Fatalf("submission has no cache key")
	}

	evs := streamEvents(t, hs.URL, st.ID)
	var stages []string
	var kinds []string
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "stage" {
			stages = append(stages, ev.Stage)
		}
	}
	if kinds[0] != "submitted" || kinds[1] != "start" {
		t.Fatalf("stream opens %v, want submitted,start", kinds[:2])
	}
	if last := kinds[len(kinds)-1]; last != StateDone {
		t.Fatalf("stream ends with %q: %+v", last, evs[len(evs)-1])
	}
	want := core.Stages
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("stage events %v, want %v", stages, want)
	}

	final := waitTerminal(t, hs.URL, st.ID)
	if final.State != StateDone || final.Cached {
		t.Fatalf("final status: %+v", final)
	}
	for _, name := range []string{ArtifactNetlist, ArtifactConstraints, ArtifactLint, ArtifactStatic, ArtifactResult} {
		code, b := mustGet(t, hs.URL+"/jobs/"+st.ID+"/artifacts/"+name)
		if code != http.StatusOK || len(b) == 0 {
			t.Fatalf("artifact %s: HTTP %d, %d bytes", name, code, len(b))
		}
	}
	_, rb := mustGet(t, hs.URL+"/jobs/"+st.ID+"/artifacts/"+ArtifactResult)
	var sum Summary
	if err := json.Unmarshal(rb, &sum); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if sum.Regions == 0 || sum.Controllers == 0 || sum.Period <= 0 {
		t.Fatalf("implausible summary: %+v", sum)
	}
	if sum.CacheKey != st.CacheKey {
		t.Fatalf("result.json cache key %s != submission's %s", sum.CacheKey, st.CacheKey)
	}
}

// TestCachedResubmissionByteIdentical is the tentpole guarantee: the same
// design and options submitted twice hit the cache and every artifact is
// byte-identical to the fresh run's.
func TestCachedResubmissionByteIdentical(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	fresh := submitJob(t, hs.URL, `{"gen":"dlx","options":{"faults":true}}`)
	freshDone := waitTerminal(t, hs.URL, fresh.ID)
	if freshDone.State != StateDone || freshDone.Cached {
		t.Fatalf("fresh run: %+v", freshDone)
	}

	hit := submitJob(t, hs.URL, `{"gen":"dlx","options":{"faults":true}}`)
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("resubmission not an instant cache hit: %+v", hit)
	}
	if hit.CacheKey != fresh.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", hit.CacheKey, fresh.CacheKey)
	}
	if fmt.Sprint(hit.Artifacts) != fmt.Sprint(freshDone.Artifacts) {
		t.Fatalf("artifact lists differ: %v vs %v", hit.Artifacts, freshDone.Artifacts)
	}
	for _, name := range freshDone.Artifacts {
		_, fb := mustGet(t, hs.URL+"/jobs/"+fresh.ID+"/artifacts/"+name)
		_, hb := mustGet(t, hs.URL+"/jobs/"+hit.ID+"/artifacts/"+name)
		if !bytes.Equal(fb, hb) {
			t.Fatalf("artifact %s differs between fresh and cached", name)
		}
	}

	var stats ServerStats
	_, sb := mustGet(t, hs.URL+"/stats")
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 || stats.Done != 2 {
		t.Fatalf("stats after hit: %+v", stats)
	}
}

// TestCanonicalOptionsShareCacheEntry: a request spelling out a default
// must address the same cache entry as one omitting it.
func TestCanonicalOptionsShareCacheEntry(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	a := submitJob(t, hs.URL, `{"gen":"fir"}`)
	waitTerminal(t, hs.URL, a.ID)
	b := submitJob(t, hs.URL, `{"gen":"fir","options":{"margin":1.15,"j":3}}`)
	if b.CacheKey != a.CacheKey {
		t.Fatalf("explicit defaults split the cache: %s vs %s", a.CacheKey, b.CacheKey)
	}
	if !b.Cached {
		t.Fatalf("canonical resubmission missed the cache: %+v", b)
	}
	c := submitJob(t, hs.URL, `{"gen":"fir","options":{"margin":1.3}}`)
	if c.CacheKey == a.CacheKey {
		t.Fatalf("a different margin must address a different entry")
	}
}

// TestUploadVerilogLifecycle drives the upload path: export a built design
// to Verilog text, submit it as an upload, and desynchronize it.
func TestUploadVerilogLifecycle(t *testing.T) {
	d, err := designs.BuildFIR(stdcells.New(stdcells.HighSpeed))
	if err != nil {
		t.Fatal(err)
	}
	src := verilog.Write(d)
	body, err := json.Marshal(JobRequest{Verilog: src})
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{})
	st := submitJob(t, hs.URL, string(body))
	final := waitTerminal(t, hs.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("uploaded FIR failed: %+v", final)
	}
	// The upload resubmitted must hit — the content hash, not the upload
	// bytes, addresses the cache.
	again := submitJob(t, hs.URL, string(body))
	if !again.Cached {
		t.Fatalf("identical upload missed the cache: %+v", again)
	}
}

// TestSingleflightAttach holds one job in flight and submits it again:
// the duplicate must attach to the running leader (no second run, no queue
// slot), terminate with the leader's artifacts byte-identically, and show
// up in /stats. A submission with different options must not attach.
func TestSingleflightAttach(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	testStageHook = func(ctx context.Context, stage string) {
		if stage == "clean" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	t.Cleanup(func() { testStageHook = nil; once.Do(func() { close(release) }) })

	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	leader := submitJob(t, hs.URL, `{"gen":"fir"}`)
	waitForKind(t, hs.URL, leader.ID, "start")

	follower := submitJob(t, hs.URL, `{"gen":"fir"}`)
	if follower.Attached != leader.ID {
		t.Fatalf("duplicate submission did not attach: %+v", follower)
	}
	if follower.Cached {
		t.Fatalf("follower claims a cache hit: %+v", follower)
	}
	// Different canonical options queue their own run instead of attaching.
	other := submitJob(t, hs.URL, `{"gen":"fir","options":{"margin":1.3}}`)
	if other.Attached != "" {
		t.Fatalf("different options attached to the leader: %+v", other)
	}

	once.Do(func() { close(release) })
	lDone := waitTerminal(t, hs.URL, leader.ID)
	fDone := waitTerminal(t, hs.URL, follower.ID)
	waitTerminal(t, hs.URL, other.ID)
	if lDone.State != StateDone || fDone.State != StateDone {
		t.Fatalf("leader %s, follower %s", lDone.State, fDone.State)
	}
	if fmt.Sprint(fDone.Artifacts) != fmt.Sprint(lDone.Artifacts) {
		t.Fatalf("artifact lists differ: %v vs %v", fDone.Artifacts, lDone.Artifacts)
	}
	for _, name := range lDone.Artifacts {
		_, lb := mustGet(t, hs.URL+"/jobs/"+leader.ID+"/artifacts/"+name)
		_, fb := mustGet(t, hs.URL+"/jobs/"+follower.ID+"/artifacts/"+name)
		if !bytes.Equal(lb, fb) {
			t.Fatalf("artifact %s differs between leader and follower", name)
		}
	}
	evs := streamEvents(t, hs.URL, follower.ID)
	var sawAttach bool
	for _, ev := range evs {
		if ev.Kind == "attached" {
			sawAttach = true
		}
		if ev.Kind == "start" || ev.Kind == "stage" {
			t.Fatalf("follower ran its own flow: %+v", ev)
		}
	}
	if !sawAttach {
		t.Fatalf("follower stream lacks the attached event: %+v", evs)
	}

	var stats ServerStats
	_, sb := mustGet(t, hs.URL+"/stats")
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Attached != 1 {
		t.Fatalf("stats.Attached = %d, want 1", stats.Attached)
	}

	// The leader is terminal and out of flight: the same submission now
	// hits the result cache instead of attaching.
	again := submitJob(t, hs.URL, `{"gen":"fir"}`)
	if !again.Cached || again.Attached != "" {
		t.Fatalf("post-completion resubmission: %+v", again)
	}
}

// TestSingleflightFollowsCancel: canceling the leader cancels everyone who
// attached to it — sharing a run means sharing its fate.
func TestSingleflightFollowsCancel(t *testing.T) {
	testStageHook = func(ctx context.Context, stage string) {
		select {
		case <-ctx.Done():
		case <-time.After(time.Minute):
		}
	}
	t.Cleanup(func() { testStageHook = nil })

	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	leader := submitJob(t, hs.URL, `{"gen":"fir"}`)
	waitForKind(t, hs.URL, leader.ID, "start")
	follower := submitJob(t, hs.URL, `{"gen":"fir"}`)
	if follower.Attached != leader.ID {
		t.Fatalf("duplicate did not attach: %+v", follower)
	}
	if code, _ := mustPost(t, hs.URL+"/jobs/"+leader.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if st := waitTerminal(t, hs.URL, follower.ID); st.State != StateCanceled {
		t.Fatalf("follower of a canceled leader ended %s", st.State)
	}
}

// TestTwoPhaseSubmission drives a twophase-backend job through the server:
// the TP-* lint gate replaces the desync gate set, the desync-only gates
// are dropped at canonicalization (sharing one cache entry with a request
// that never asked), and result.json reflects the backend.
func TestTwoPhaseSubmission(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	st := submitJob(t, hs.URL, `{"gen":"fir","options":{"backend":"twophase","equiv":true,"faults":true}}`)
	final := waitTerminal(t, hs.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("twophase FIR failed: %+v", final)
	}
	for _, name := range final.Artifacts {
		if name == ArtifactStatic || name == ArtifactEquiv || name == ArtifactFaults {
			t.Fatalf("desync-only artifact %s on a twophase job", name)
		}
	}
	_, rb := mustGet(t, hs.URL+"/jobs/"+st.ID+"/artifacts/"+ArtifactResult)
	var sum Summary
	if err := json.Unmarshal(rb, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Options.Backend != core.BackendTwoPhase {
		t.Fatalf("result backend %q", sum.Options.Backend)
	}
	if sum.StaticOK || sum.EquivRan || sum.FaultsRan || sum.Controllers != 0 {
		t.Fatalf("desync gate results on a twophase job: %+v", sum)
	}
	if sum.Options.Equiv || sum.Options.Faults {
		t.Fatalf("desync-only gate knobs survived canonicalization: %+v", sum.Options)
	}
	var noted bool
	for _, ev := range streamEvents(t, hs.URL, st.ID) {
		if ev.Kind == "note" && ev.Stage == "gates" {
			noted = true
		}
	}
	if !noted {
		t.Fatal("dropped equiv/faults request produced no note event")
	}

	// A request that never asked for the dropped gates shares the entry.
	plain := submitJob(t, hs.URL, `{"gen":"fir","options":{"backend":"twophase"}}`)
	if plain.CacheKey != st.CacheKey || !plain.Cached {
		t.Fatalf("inert gate knobs split the cache: %+v vs %+v", plain, st)
	}
	// The desync flow on the same design addresses a different entry.
	if d := submitJob(t, hs.URL, `{"gen":"fir"}`); d.CacheKey == st.CacheKey {
		t.Fatal("backends share a cache entry")
	}
}

// TestSubmitValidation: malformed submissions are rejected before any
// flow work happens.
func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, body := range []string{
		`{}`,
		`{"gen":"dlx","verilog":"module m; endmodule"}`,
		`{"gen":"vax"}`,
		`{"gen":"dlx","lib":"XX"}`,
		`{"gen":"dlx","top":"dlx"}`,
		`{"gen":"dlx","options":{"backend":"fourphase"}}`,
		`{"gen":"dlx","options":{"backend":"twophase","mode":"cdet"}}`,
		`not json`,
	} {
		code, _ := mustPost(t, hs.URL+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, code)
		}
	}
	if code, _ := mustGet(t, hs.URL+"/jobs/j999"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
}

// TestCancelAndBackpressure exercises the bounded queue and both cancel
// paths over real HTTP: a full queue rejects with 503, a queued job
// cancels instantly, a running job cancels at the next stage boundary.
func TestCancelAndBackpressure(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Hold the running job at its first stage until its context is canceled
	// (the flow itself finishes in milliseconds — far too fast to race the
	// cancel request against).
	testStageHook = func(ctx context.Context, stage string) {
		select {
		case <-ctx.Done():
		case <-time.After(time.Minute):
		}
	}
	t.Cleanup(func() { testStageHook = nil })

	// The held job occupies the single worker.
	running := submitJob(t, hs.URL, `{"gen":"arm"}`)
	waitForKind(t, hs.URL, running.ID, "start")

	queued := submitJob(t, hs.URL, `{"gen":"dlx"}`)
	if queued.State != StateQueued {
		t.Fatalf("second job state = %s, want queued", queued.State)
	}
	if code, b := mustPost(t, hs.URL+"/jobs", `{"gen":"fir"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: HTTP %d: %s", code, b)
	}

	if code, _ := mustPost(t, hs.URL+"/jobs/"+queued.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}
	if st := waitTerminal(t, hs.URL, queued.ID); st.State != StateCanceled {
		t.Fatalf("canceled queued job ended %s", st.State)
	}

	if code, _ := mustPost(t, hs.URL+"/jobs/"+running.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", code)
	}
	st := waitTerminal(t, hs.URL, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("mid-job cancel ended %s (%s)", st.State, st.Error)
	}
	evs := streamEvents(t, hs.URL, running.ID)
	if last := evs[len(evs)-1]; last.Kind != StateCanceled {
		t.Fatalf("canceled job's stream ends with %+v", last)
	}
}

// waitForKind polls the job's status until its event log contains the
// kind (events streaming is covered elsewhere; polling keeps this helper
// free of a second connection).
func waitForKind(t *testing.T, base, id, kind string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				break
			}
			if ev.Kind == kind {
				resp.Body.Close()
				return
			}
			if terminalState(ev.Kind) {
				break
			}
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached event kind %q", id, kind)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainUnderSIGTERM sends the test process a real SIGTERM while one
// job runs and two sit queued, through the same cliutil drain path the
// CLI uses: the running job finishes inside the grace period, the queued
// jobs are canceled, and Serve returns cleanly.
func TestDrainUnderSIGTERM(t *testing.T) {
	// Slow every stage down enough that the queued jobs are still queued
	// when SIGTERM lands, while the running job still finishes well inside
	// the grace period.
	testStageHook = func(ctx context.Context, stage string) {
		select {
		case <-ctx.Done():
		case <-time.After(250 * time.Millisecond):
		}
	}
	t.Cleanup(func() { testStageHook = nil })

	s := New(Config{Workers: 1, QueueDepth: 4, DrainGrace: 2 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	interrupted, err := cliutil.RunDrained(func(ctx context.Context) error {
		serveErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(ctx, ln) }()

		running := submitJob(t, base, `{"gen":"dlx"}`)
		waitForKind(t, base, running.ID, "start")
		q1 := submitJob(t, base, `{"gen":"dlx","options":{"margin":1.2}}`)
		q2 := submitJob(t, base, `{"gen":"dlx","options":{"margin":1.3}}`)
		if q1.State != StateQueued || q2.State != StateQueued {
			t.Fatalf("expected queued jobs, got %s and %s", q1.State, q2.State)
		}

		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("self-SIGTERM: %v", err)
		}
		<-ctx.Done()
		if err := <-serveErr; err != nil {
			t.Fatalf("Serve under drain: %v", err)
		}

		// The listener is down; read terminal states from the store.
		for id, want := range map[string]string{
			running.ID: StateDone, q1.ID: StateCanceled, q2.ID: StateCanceled,
		} {
			j := s.jobByID(id)
			<-j.done
			if st := j.status(); st.State != want {
				t.Errorf("after drain, job %s = %s, want %s (%s)", id, st.State, want, st.Error)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("drained run: interrupted=%v err=%v", interrupted, err)
	}
}

// TestEventStreamDeterministic: two fresh runs of the same submission on
// two servers produce byte-identical event streams — no timestamps, no
// ordering leaks.
func TestEventStreamDeterministic(t *testing.T) {
	var streams [2]string
	for i := range streams {
		_, hs := newTestServer(t, Config{})
		st := submitJob(t, hs.URL, `{"gen":"fir"}`)
		waitTerminal(t, hs.URL, st.ID)
		evs := streamEvents(t, hs.URL, st.ID)
		b, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = string(b)
	}
	if streams[0] != streams[1] {
		t.Fatalf("event streams differ across identical fresh runs:\n%s\n%s", streams[0], streams[1])
	}
}

// BenchmarkServeCachedSubmit is the cache-hit latency guard wired into
// make check: resubmit an already-cached request over real HTTP, both a
// FIR generator request and a 256-region flat upload, the shape of the
// serve workload's uploads.
func BenchmarkServeCachedSubmit(b *testing.B) {
	flat, err := designs.ParseSpec("pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=101", stdcells.New(stdcells.HighSpeed))
	if err != nil {
		b.Fatal(err)
	}
	upload, err := json.Marshal(JobRequest{Verilog: verilog.Write(flat)})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, body string }{
		{"fir", `{"gen":"fir"}`},
		{"flat256", string(upload)},
	} {
		b.Run(bc.name, func(b *testing.B) { benchCachedSubmit(b, bc.body) })
	}
}

func benchCachedSubmit(b *testing.B, body string) {
	s := New(Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := range s.queue {
			s.runJob(ctx, j)
		}
	}()
	defer func() { s.beginDrain(); <-done }()

	prime := func() Status {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		return st
	}
	st := prime()
	for !terminalState(st.State) {
		time.Sleep(20 * time.Millisecond)
		_, sb := benchGet(b, hs.URL+"/jobs/"+st.ID)
		if err := json.Unmarshal(sb, &st); err != nil {
			b.Fatal(err)
		}
	}
	if st.State != StateDone {
		b.Fatalf("priming run ended %s: %s", st.State, st.Error)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := prime(); !st.Cached {
			b.Fatalf("iteration %d missed the cache: %+v", i, st)
		}
	}
}

func benchGet(b *testing.B, url string) (int, []byte) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	bs, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return resp.StatusCode, bs
}
