package flowserv

import (
	"sync"

	"desync/internal/netlist"
)

// Job states, in lifecycle order. queued and running are transient; done,
// failed and canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Event is one progress record of a job's NDJSON stream. Events carry no
// wall-clock fields: the stream of a cached job replays byte-identically to
// the fresh run it mirrors (latency lives in the client, not the record).
type Event struct {
	// Seq numbers the event within its job, from 0.
	Seq int `json:"seq"`
	// Kind is submitted|cached|attached|start|stage|gate|note|artifact|done|failed|canceled.
	Kind string `json:"kind"`
	// Stage is the flow stage for kind=stage and the gate name for kind=gate.
	Stage string `json:"stage,omitempty"`
	// Msg is human context (failure reason, artifact name, downgrade note).
	Msg string `json:"msg,omitempty"`
}

// Status is the JSON shape of GET /jobs/{id}.
type Status struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Design    string   `json:"design,omitempty"`
	Gen       string   `json:"gen,omitempty"`
	Cached    bool     `json:"cached"`
	Attached  string   `json:"attached,omitempty"`
	CacheKey  string   `json:"cacheKey"`
	Stage     string   `json:"stage,omitempty"`
	Error     string   `json:"error,omitempty"`
	Events    int      `json:"events"`
	Artifacts []string `json:"artifacts,omitempty"`
}

// job is one submission's full lifecycle. The mutex guards every mutable
// field; events append monotonically and changed is swapped (old one
// closed) on each append, so streamers wait without polling.
type job struct {
	id  string
	req *JobRequest
	key string
	// digest is the request digest, recorded in the memo with the result.
	digest string
	// top names the input design's top module, for status after the
	// design is gone.
	top string

	// design is the input netlist, built at submit time to compute the
	// content hash; the flow mutates it in place when the job runs. Only a
	// leader holds one, from admission until it turns terminal, so a
	// finished job keeps its artifacts and no netlist.
	design *netlist.Design

	mu       sync.Mutex
	state    string
	stage    string
	errMsg   string
	cached   bool
	attached string // leader job id when this submission rode an in-flight run
	events   []Event
	changed  chan struct{}
	done     chan struct{}
	cancelFn func()
	// artifacts: for done jobs this aliases the cache entry's map; for
	// failed jobs it holds whatever reports were produced before the gate
	// tripped, so failures stay diagnosable over HTTP.
	artifacts map[string][]byte
}

func newJob(id string, req *JobRequest, key, digest, top string) *job {
	j := &job{
		id: id, req: req, key: key, digest: digest, top: top,
		state:   StateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.event("submitted", "", "")
	return j
}

// event appends one progress record. Callers hold no lock.
func (j *job) event(kind, stage, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.eventLocked(kind, stage, msg)
}

func (j *job) eventLocked(kind, stage, msg string) {
	j.events = append(j.events, Event{Seq: len(j.events), Kind: kind, Stage: stage, Msg: msg})
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventsFrom returns the events at index >= i, the channel that closes on
// the next append, and whether the job is terminal.
func (j *job) eventsFrom(i int) (evs []Event, changed chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.changed, terminalState(j.state)
}

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// setStage records the currently running flow stage.
func (j *job) setStage(stage string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stage = stage
	j.eventLocked("stage", stage, "")
}

// start flips queued -> running and installs the in-flight cancel hook;
// it reports false when the job was already canceled while queued.
func (j *job) start(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancelFn = cancel
	j.eventLocked("start", "", "")
	return true
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state, msg string, artifacts map[string][]byte, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.state) {
		return
	}
	j.state = state
	j.errMsg = msg
	j.cached = cached
	j.design = nil
	if artifacts != nil {
		j.artifacts = artifacts
	}
	kind := state
	if cached && state == StateDone {
		j.eventLocked("cached", "", "result served from the content-addressed cache")
	}
	j.eventLocked(kind, "", msg)
	j.cancelFn = nil
	close(j.done)
}

// attach marks the job a follower of the in-flight leader. Called under the
// server lock at admission, before any other goroutine can see the job.
func (j *job) attach(leaderID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attached = leaderID
	j.eventLocked("attached", "",
		"identical submission already in flight; attached to job "+leaderID)
}

// isTerminal reports whether the job already reached a terminal state.
func (j *job) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

// outcome snapshots a terminal job's result for followers. Only valid after
// done is closed (finish publishes every field before closing it).
func (j *job) outcome() (state, msg string, artifacts map[string][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.artifacts
}

// cancel requests cancellation: a queued job terminates immediately, a
// running one has its flow context canceled and terminates at the next
// stage boundary. Terminal jobs are left alone. Reports whether the
// request did anything.
func (j *job) cancel(msg string) bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	if j.state == StateQueued {
		j.state = StateCanceled
		j.errMsg = msg
		j.design = nil
		j.eventLocked(StateCanceled, "", msg)
		close(j.done)
		j.mu.Unlock()
		return true
	}
	fn := j.cancelFn
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
	return true
}

// status snapshots the job for the JSON API.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, State: j.state, Design: j.top, Gen: j.req.Gen, Cached: j.cached,
		Attached: j.attached, CacheKey: j.key, Stage: j.stage,
		Error: j.errMsg, Events: len(j.events),
		Artifacts: artifactNames(j.artifacts),
	}
}

// snapshotArtifacts returns the artifact map for serving; nil when none.
func (j *job) snapshotArtifacts() map[string][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.artifacts
}
