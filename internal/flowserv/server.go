// Package flowserv runs the clocking-conversion flow as a long-lived HTTP
// job service: clients submit a design (an uploaded gate-level netlist or
// one of the built-in case-study generators) plus flow options, poll or
// stream the job's per-stage progress, and fetch the exported netlist,
// constraints and verification reports from stable artifact URLs.
//
// The server is built from the repo's existing layers rather than beside
// them: jobs execute core.Convert under the request's backend with the
// same gate discipline as cmd/drdesync, a bounded queue feeds a fixed set
// of job workers whose kernels share internal/par's pool size, and a
// content-addressed LRU cache keyed on the canonical netlist hash plus
// canonicalized options serves byte-identical artifacts for repeated
// submissions — the cross-request analogue of ctrlnet's ModSeq
// memoization, sound because every kernel in the repo produces identical
// output at any worker count. A memo from request digest to cache entry
// serves a byte-identical repeat without building its design at all.
// Identical submissions racing in before a result exists are deduplicated
// at admission: the duplicate attaches to the in-flight leader and copies
// its terminal outcome instead of running the flow again.
package flowserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Config sizes the server. The zero value of every field selects a
// documented default, so Config{} is a working configuration.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-running jobs;
	// submissions past the bound get 503. 0 means 16.
	QueueDepth int
	// Workers is the number of jobs run concurrently. 0 means 2.
	Workers int
	// CacheEntries bounds the content-addressed result cache. 0 means 64.
	CacheEntries int
	// MaxUploadBytes bounds a POST /jobs body. 0 means 4 MiB.
	MaxUploadBytes int64
	// DrainGrace is how long running jobs may keep going after drain
	// begins before their contexts are canceled. 0 means 5s.
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 4 << 20
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// ServerStats is the GET /stats body.
type ServerStats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Attached counts submissions that rode an identical in-flight run
	// instead of queueing their own (cumulative).
	Attached int        `json:"attached"`
	Draining bool       `json:"draining"`
	Cache    CacheStats `json:"cache"`
}

// Server is the flow job service. Create with New, attach to a listener
// with Serve, or mount Handler in a test server.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	results *cache

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // ids in admission order — the deterministic job log
	nextID   int
	queue    chan *job
	draining bool
	// inflight maps a cache key to the job currently computing it (queued
	// or running). An identical submission arriving meanwhile attaches to
	// this leader instead of queueing a duplicate run — the in-flight
	// analogue of the result cache.
	inflight map[string]*job
	attached int // total follower submissions, for /stats
}

// New builds a server from cfg (zero fields take the documented defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		results:  newCache(cfg.CacheEntries),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
		nextID:   1,
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler exposes the route table, for httptest servers.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve runs the service on ln until ctx is canceled, then drains: new
// submissions get 503, queued jobs are canceled, running jobs get
// DrainGrace to finish before their contexts are canceled, and the HTTP
// listener shuts down gracefully once every job is terminal.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Job lifetimes are decoupled from ctx on purpose: drain cancels them
	// on its own schedule, after the grace period.
	jobsCtx, jobsCancel := context.WithCancel(context.Background())
	defer jobsCancel()
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.runJob(jobsCtx, j)
			}
		}()
	}

	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener died on its own; reap the workers and report.
		s.beginDrain()
		jobsCancel()
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	s.beginDrain()
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-time.After(s.cfg.DrainGrace):
		jobsCancel()
		<-workersDone
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	return srv.Shutdown(shCtx)
}

// beginDrain stops admissions, cancels every still-queued job and closes
// the queue so workers exit once it is empty. Idempotent.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	queued := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		queued = append(queued, s.jobs[id])
	}
	close(s.queue)
	s.mu.Unlock()
	// Cancel outside the lock: queued jobs terminate immediately, ones a
	// worker already started are left to the grace period. Followers are
	// skipped — they terminate with their leader, which the grace period
	// already bounds (a queued leader is canceled right here, a running one
	// at the grace deadline).
	for _, j := range queued {
		j.mu.Lock()
		isQueued := j.state == StateQueued && j.attached == ""
		j.mu.Unlock()
		if isQueued {
			j.cancel("server draining")
		}
	}
}

// runJob executes one dequeued job to a terminal state.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.clearInflight(j)
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !j.start(cancel) {
		return // canceled while queued
	}
	arts, err := runGuarded(jctx, j)
	switch {
	case err == nil:
		s.results.put(&entry{key: j.key, top: j.top, artifacts: arts}, j.digest)
		j.finish(StateDone, "", arts, false)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, err.Error(), arts, false)
	default:
		j.finish(StateFailed, err.Error(), arts, false)
	}
}

// clearInflight drops the job's singleflight registration once it can no
// longer be attached to. Runs for every dequeued job, including ones
// canceled while queued (start fails, the run is skipped, the entry must
// still go); the identity check keeps a later leader under the same key
// safe from a stale clear.
func (s *Server) clearInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hanging up is not our error
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// handleSubmit admits one job: parse, validate, then serve the cached
// result instantly when an identical request already has one (the memo),
// else build the input design, compute its content address, and serve the
// cached result or enqueue a fresh run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var req JobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.normalize()
	digest, err := req.digest()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.admitMemoized(w, &req, digest) {
		return
	}
	d, err := req.buildDesign()
	if err != nil {
		writeError(w, http.StatusBadRequest, "building input design: "+err.Error())
		return
	}
	key, err := cacheKey(d, req.Options)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	j := newJob(fmt.Sprintf("j%d", s.nextID), &req, key, digest, d.Top.Name)
	if e, ok := s.results.get(key, digest); ok {
		s.register(j)
		s.mu.Unlock()
		serveCached(w, j, e)
		return
	}
	// Singleflight: an identical submission already queued or running
	// becomes a follower of that leader — no duplicate run, no queue slot.
	// The follower terminates with the leader's outcome (including
	// cancellation: attaching means sharing the leader's fate).
	if leader, ok := s.inflight[key]; ok && !leader.isTerminal() {
		s.register(j)
		j.attach(leader.id)
		s.attached++
		s.mu.Unlock()
		go func() {
			<-leader.done
			state, msg, arts := leader.outcome()
			j.finish(state, msg, arts, false)
		}()
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	j.design = d
	select {
	case s.queue <- j:
		s.register(j)
		s.inflight[key] = j
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth))
	}
}

// admitMemoized answers a submission whose request digest the memo maps
// to a cached entry: the job is served from that entry without building
// its design. It reports false, having written nothing, when the memo has
// no entry for the digest; a draining server answers 503 first.
func (s *Server) admitMemoized(w http.ResponseWriter, req *JobRequest, digest string) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	e, ok := s.results.lookup(digest)
	if !ok {
		s.mu.Unlock()
		return false
	}
	j := newJob(fmt.Sprintf("j%d", s.nextID), req, e.key, digest, e.top)
	s.register(j)
	s.mu.Unlock()
	serveCached(w, j, e)
	return true
}

// serveCached finishes j as a cache hit on e and answers 200.
func serveCached(w http.ResponseWriter, j *job, e *entry) {
	j.finish(StateDone, "", e.artifacts, true)
	writeJSON(w, http.StatusOK, j.status())
}

// register admits j under the next id. The caller holds s.mu.
func (s *Server) register(j *job) {
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// handleList reports every admitted job id in admission order — the
// deterministic job log.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's progress as NDJSON, one Event per line,
// from the beginning of the job, ending when the job reaches a terminal
// state or the client hangs up.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, changed, terminal := j.eventsFrom(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves one named artifact's bytes exactly as the flow (or
// the cache) recorded them.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	name := r.PathValue("name")
	b, ok := j.snapshotArtifacts()[name]
	if !ok {
		writeError(w, http.StatusNotFound, "no such artifact")
		return
	}
	ctype := "text/plain; charset=utf-8"
	if strings.HasSuffix(name, ".json") {
		ctype = "application/json"
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // the client hanging up is not our error
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel("canceled by client")
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := ServerStats{Cache: s.results.stats()}
	s.mu.Lock()
	st.Draining = s.draining
	st.Attached = s.attached
	for _, id := range s.order {
		switch s.jobs[id].status().State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
