package flowserv

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// countBuilds counts input builds through testBuildHook for the rest of
// the test and returns the count so far. Install it before the server, so
// the hook outlives the server's drain.
func countBuilds(t *testing.T) func() int64 {
	t.Helper()
	var n atomic.Int64
	testBuildHook = func() { n.Add(1) }
	t.Cleanup(func() { testBuildHook = nil })
	return n.Load
}

// uploadBody is the JSON submission of a Verilog upload.
func uploadBody(t *testing.T, src string) string {
	t.Helper()
	b, err := json.Marshal(JobRequest{Verilog: src})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// specVerilog writes a generator spec out as an upload source.
func specVerilog(t *testing.T, spec string) string {
	t.Helper()
	d, err := designs.ParseSpec(spec, stdcells.New(stdcells.HighSpeed))
	if err != nil {
		t.Fatal(err)
	}
	return verilog.Write(d)
}

func getStats(t *testing.T, base string) ServerStats {
	t.Helper()
	var st ServerStats
	_, b := mustGet(t, base+"/stats")
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sameArtifacts requires job b to serve every one of job a's artifacts
// byte for byte, and no others.
func sameArtifacts(t *testing.T, base string, a, b Status) {
	t.Helper()
	if strings.Join(a.Artifacts, ",") != strings.Join(b.Artifacts, ",") {
		t.Fatalf("artifact lists differ: %v vs %v", a.Artifacts, b.Artifacts)
	}
	for _, name := range a.Artifacts {
		_, ab := mustGet(t, base+"/jobs/"+a.ID+"/artifacts/"+name)
		_, bb := mustGet(t, base+"/jobs/"+b.ID+"/artifacts/"+name)
		if !bytes.Equal(ab, bb) {
			t.Fatalf("artifact %s differs between jobs %s and %s", name, a.ID, b.ID)
		}
	}
}

// memoSize is the number of request digests the memo holds.
func memoSize(s *Server) int {
	s.results.mu.Lock()
	defer s.results.mu.Unlock()
	return len(s.results.memo)
}

// TestMemoizedResubmissionSkipsBuild: a byte-identical resubmission — or
// one that differs only in spelling out a default option — is served from
// the memo without building its design, with the fresh run's bytes, the
// same cache key and the same design name.
func TestMemoizedResubmissionSkipsBuild(t *testing.T) {
	for _, tc := range []struct{ name, body, respelled string }{
		{"gen", `{"gen":"fir"}`, `{"gen":"fir","lib":"HS","options":{"margin":1.15}}`},
		{"upload", uploadBody(t, specVerilog(t, "pipeline:depth=4,width=8,regions=6")), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			builds := countBuilds(t)
			_, hs := newTestServer(t, Config{})
			fresh := submitJob(t, hs.URL, tc.body)
			freshDone := waitTerminal(t, hs.URL, fresh.ID)
			if freshDone.State != StateDone || freshDone.Cached || freshDone.Design == "" {
				t.Fatalf("fresh run: %+v", freshDone)
			}
			if n := builds(); n != 1 {
				t.Fatalf("fresh run built its design %d times, want 1", n)
			}
			for _, body := range []string{tc.body, tc.respelled} {
				if body == "" {
					continue
				}
				hit := submitJob(t, hs.URL, body)
				if n := builds(); n != 1 {
					t.Fatalf("memoized resubmission built its design (%d builds)", n)
				}
				if hit.State != StateDone || !hit.Cached || hit.CacheKey != fresh.CacheKey || hit.Design != freshDone.Design {
					t.Fatalf("memoized resubmission: %+v, fresh: %+v", hit, freshDone)
				}
				sameArtifacts(t, hs.URL, freshDone, hit)
			}
		})
	}
}

// TestContentIdenticalUploadHits: an upload that differs in bytes but not
// in content still meets the cached entry through its content hash, after
// a parse. The memo keeps one digest per entry, the last one recorded.
func TestContentIdenticalUploadHits(t *testing.T) {
	builds := countBuilds(t)
	_, hs := newTestServer(t, Config{})
	src := specVerilog(t, "fir")
	plain := uploadBody(t, src)
	commented := uploadBody(t, "// the same netlist, resubmitted\n"+src)

	fresh := submitJob(t, hs.URL, plain)
	freshDone := waitTerminal(t, hs.URL, fresh.ID)
	if freshDone.State != StateDone {
		t.Fatalf("fresh upload: %+v", freshDone)
	}
	hit := submitJob(t, hs.URL, commented)
	if !hit.Cached || hit.CacheKey != fresh.CacheKey || hit.Design != freshDone.Design {
		t.Fatalf("content-identical upload missed the entry: %+v", hit)
	}
	if n := builds(); n != 2 {
		t.Fatalf("%d builds, want 2: the new spelling is parsed once", n)
	}
	sameArtifacts(t, hs.URL, freshDone, hit)

	// The commented spelling is now the entry's digest and repeats without
	// a parse; the plain one it replaced still meets the entry by content.
	if again := submitJob(t, hs.URL, commented); !again.Cached || builds() != 2 {
		t.Fatalf("repeat of the recorded spelling: %+v after %d builds", again, builds())
	}
	if back := submitJob(t, hs.URL, plain); !back.Cached || builds() != 3 {
		t.Fatalf("repeat of the replaced spelling: %+v after %d builds", back, builds())
	}
	if st := getStats(t, hs.URL); st.Cache.Hits != 3 || st.Cache.Misses != 1 {
		t.Fatalf("stats: %+v", st.Cache)
	}
}

// TestMemoEvictedEntryRunsFresh: once a memoized request's entry is
// evicted, its resubmission rebuilds and runs fresh, counted as exactly
// one miss.
func TestMemoEvictedEntryRunsFresh(t *testing.T) {
	builds := countBuilds(t)
	s, hs := newTestServer(t, Config{CacheEntries: 1})
	first := waitTerminal(t, hs.URL, submitJob(t, hs.URL, `{"gen":"fir"}`).ID)
	other := waitTerminal(t, hs.URL, submitJob(t, hs.URL, `{"gen":"pipeline:depth=4,width=8,regions=6"}`).ID)
	if first.State != StateDone || other.State != StateDone {
		t.Fatalf("priming runs: %s, %s", first.State, other.State)
	}
	before, b0 := getStats(t, hs.URL), builds()
	if memoSize(s) != 1 {
		t.Fatalf("memo holds %d digests for 1 cached entry", memoSize(s))
	}

	again := submitJob(t, hs.URL, `{"gen":"fir"}`)
	if again.Cached {
		t.Fatalf("evicted entry served from the memo: %+v", again)
	}
	againDone := waitTerminal(t, hs.URL, again.ID)
	if againDone.State != StateDone || againDone.CacheKey != first.CacheKey {
		t.Fatalf("fresh rerun: %+v", againDone)
	}
	sameArtifacts(t, hs.URL, first, againDone)
	if n := builds() - b0; n != 1 {
		t.Fatalf("evicted request built its design %d times, want 1", n)
	}
	after := getStats(t, hs.URL)
	if after.Cache.Misses != before.Cache.Misses+1 || after.Cache.Hits != before.Cache.Hits ||
		after.Cache.Evicted != before.Cache.Evicted+1 {
		t.Fatalf("stats before %+v, after %+v", before.Cache, after.Cache)
	}
}

// TestFailedRequestsNotMemoized: a request whose build fails or whose run
// fails leaves nothing in the memo, and fails the same way when repeated.
func TestFailedRequestsNotMemoized(t *testing.T) {
	builds := countBuilds(t)
	s, hs := newTestServer(t, Config{})
	malformed := uploadBody(t, "module m (a, y);\n  input a;\n  output y;\n  NOSUCHCELL u (.A(a), .Y(y));\nendmodule\n")
	var first []byte
	for i := 0; i < 2; i++ {
		code, b := mustPost(t, hs.URL+"/jobs", malformed)
		if code != http.StatusBadRequest {
			t.Fatalf("malformed upload: HTTP %d: %s", code, b)
		}
		if i == 1 && !bytes.Equal(b, first) {
			t.Fatalf("repeated malformed upload answered %s, first %s", b, first)
		}
		first = b
	}

	var failed []Status
	for i := 0; i < 2; i++ {
		st := submitJob(t, hs.URL, `{"gen":"des"}`)
		if st.Cached {
			t.Fatalf("failed run served from the cache: %+v", st)
		}
		failed = append(failed, waitTerminal(t, hs.URL, st.ID))
	}
	if failed[0].State != StateFailed || failed[1].State != StateFailed || failed[0].Error != failed[1].Error {
		t.Fatalf("des runs: %+v, %+v", failed[0], failed[1])
	}
	if n := builds(); n != 4 {
		t.Fatalf("%d builds, want 4: every failing request builds again", n)
	}
	if n := memoSize(s); n != 0 {
		t.Fatalf("memo holds %d digests after only failures", n)
	}
}

// TestTerminalJobsHoldNoDesign: no terminal job keeps a netlist — done,
// failed, canceled while queued, cached and attached — and each one's
// status still names its design.
func TestTerminalJobsHoldNoDesign(t *testing.T) {
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

	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	leader := submitJob(t, hs.URL, `{"gen":"fir"}`)
	waitForKind(t, hs.URL, leader.ID, "start")
	follower := submitJob(t, hs.URL, `{"gen":"fir"}`)
	queued := submitJob(t, hs.URL, `{"gen":"arm"}`)
	if follower.Attached != leader.ID || queued.State != StateQueued {
		t.Fatalf("follower %+v, queued %+v", follower, queued)
	}
	if code, _ := mustPost(t, hs.URL+"/jobs/"+queued.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	once.Do(func() { close(release) })
	waitTerminal(t, hs.URL, leader.ID)
	waitTerminal(t, hs.URL, follower.ID)
	cached := submitJob(t, hs.URL, `{"gen":"fir"}`)
	failed := submitJob(t, hs.URL, `{"gen":"des"}`)
	waitTerminal(t, hs.URL, failed.ID)

	lib := stdcells.New(stdcells.HighSpeed)
	for _, tc := range []struct {
		id, gen, state string
	}{
		{leader.ID, "fir", StateDone},
		{follower.ID, "fir", StateDone},
		{queued.ID, "arm", StateCanceled},
		{cached.ID, "fir", StateDone},
		{failed.ID, "des", StateFailed},
	} {
		d, err := designs.ParseSpec(tc.gen, lib)
		if err != nil {
			t.Fatal(err)
		}
		j := s.jobByID(tc.id)
		j.mu.Lock()
		held := j.design != nil
		j.mu.Unlock()
		st := j.status()
		if st.State != tc.state || st.Design != d.Top.Name || held {
			t.Errorf("job %s (%s): state %s, design %q, holds a netlist: %v; want %s, %q, false",
				tc.id, tc.gen, st.State, st.Design, held, tc.state, d.Top.Name)
		}
	}
}

// TestFallbackRetryRebuildsDesign: the single-region fallback still
// rebuilds the design from the request for its retry — the first attempt
// consumed the one built at submission.
func TestFallbackRetryRebuildsDesign(t *testing.T) {
	builds := countBuilds(t)
	_, hs := newTestServer(t, Config{})
	src := "module m (clk, rstn, a, b, qa, qb);\n  input clk, rstn, a, b;\n  output qa, qb;\n" +
		"  DFFRQX1 ra (.D(a), .CK(clk), .RN(rstn), .Q(qa));\n" +
		"  DFFRQX1 rb (.D(b), .CK(clk), .RN(rstn), .Q(qb));\nendmodule\n"
	body, err := json.Marshal(JobRequest{Verilog: src, Options: FlowOptions{Period: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, hs.URL, submitJob(t, hs.URL, string(body)).ID)
	if st.State != StateDone || st.Design != "m" {
		t.Fatalf("fallback run: %+v", st)
	}
	if n := builds(); n != 2 {
		t.Fatalf("%d builds, want 2: one at submission, one for the retry", n)
	}
	_, rb := mustGet(t, hs.URL+"/jobs/"+st.ID+"/artifacts/"+ArtifactResult)
	var sum Summary
	if err := json.Unmarshal(rb, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Degraded) != 1 || sum.Degraded[0].Step != "group" {
		t.Fatalf("degraded: %+v", sum.Degraded)
	}
}
