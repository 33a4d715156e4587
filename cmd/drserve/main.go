// Command drserve runs the desynchronization flow as an HTTP job service:
// POST a design (a built-in generator name or an uploaded gate-level
// netlist) with flow options, stream per-stage progress as NDJSON, and
// fetch the exported netlist, constraints and verification reports from
// stable artifact URLs. Repeated submissions of the same design and
// options are served byte-identically from a content-addressed cache.
//
// Usage:
//
//	drserve [-addr :8080] [-queue 16] [-workers 2] [-cache 64]
//	        [-max-upload 4194304] [-drain-grace 5s]
//	drserve -smoke
//
// API:
//
//	POST /jobs                        {"gen":"dlx","options":{...}} or
//	                                  {"verilog":"...","top":"..."}
//	GET  /jobs                        admitted jobs, in admission order
//	GET  /jobs/{id}                   status snapshot
//	GET  /jobs/{id}/events            NDJSON progress stream to terminal
//	GET  /jobs/{id}/artifacts/{name}  netlist.v constraints.sdc lint.json
//	                                  static.json equiv.json faults.json
//	                                  result.json
//	POST /jobs/{id}/cancel            cancel queued or running job
//	GET  /stats                       queue, job and cache counters
//	GET  /healthz                     ok / draining
//
// SIGTERM or Ctrl-C drains: new submissions get 503, queued jobs are
// canceled, running jobs get -drain-grace to finish before their contexts
// are canceled, then the listener shuts down. A second signal kills.
//
// -smoke starts an in-process server on an ephemeral port, submits the
// DLX, polls it to completion, resubmits and verifies the cache hit is
// instant and byte-identical — the make-check gate. Load is measured by
// the repository benchmark's serve workload (bash perfbench/run.sh
// --workload serve), which sends a fresh-plus-cached-repeat mix over real
// HTTP and checks every artifact against a pinned digest.
//
// Each job's parallel kernels run GOMAXPROCS workers (set the GOMAXPROCS
// environment variable to bound them); artifacts are identical at any
// value.
//
// Exit codes: 0 clean (server drained, smoke passed), 1 failure, 2 usage
// errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"desync/internal/cliutil"
	"desync/internal/flowserv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type serveOpts struct {
	addr       string
	queue      int
	workers    int
	cache      int
	maxUpload  int64
	drainGrace time.Duration

	smoke bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := serveOpts{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.queue, "queue", 0, "queued-job bound; past it submissions get 503 (0 = 16)")
	fs.IntVar(&o.workers, "workers", 0, "jobs run concurrently (0 = 2)")
	fs.IntVar(&o.cache, "cache", 0, "content-addressed result cache entries (0 = 64)")
	fs.Int64Var(&o.maxUpload, "max-upload", 0, "POST body bound in bytes (0 = 4 MiB)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0, "running-job grace after SIGTERM (0 = 5s)")
	fs.BoolVar(&o.smoke, "smoke", false, "run the self-contained smoke check and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := flowserv.Config{
		QueueDepth:     o.queue,
		Workers:        o.workers,
		CacheEntries:   o.cache,
		MaxUploadBytes: o.maxUpload,
		DrainGrace:     o.drainGrace,
	}

	var err error
	var interrupted bool
	if o.smoke {
		interrupted, err = cliutil.RunDrained(func(ctx context.Context) error {
			return runSmoke(ctx, cfg, stdout)
		})
	} else {
		interrupted, err = cliutil.RunDrained(func(ctx context.Context) error {
			return runServer(ctx, cfg, o.addr, stdout)
		})
		if interrupted {
			// The drained server is the clean exit, not a failure.
			fmt.Fprintln(stdout, "drserve: drained and shut down")
			return 0
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "drserve:", err)
		if interrupted {
			fmt.Fprintln(stderr, "drserve: interrupted before completing")
		}
		return 1
	}
	return 0
}

// runServer serves until the drained context cancels, then reports the
// cancellation so RunDrained classifies the exit.
func runServer(ctx context.Context, cfg flowserv.Config, addr string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "drserve: listening on %s\n", ln.Addr())
	if err := flowserv.New(cfg).Serve(ctx, ln); err != nil {
		return err
	}
	return ctx.Err()
}

// startLocal runs an in-process server on an ephemeral port and returns
// its base URL plus a shutdown function.
func startLocal(ctx context.Context, cfg flowserv.Config) (base string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srvCtx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() { errc <- flowserv.New(cfg).Serve(srvCtx, ln) }()
	var once sync.Once
	var srvErr error
	shutdown = func() error {
		once.Do(func() {
			cancel()
			srvErr = <-errc
		})
		return srvErr
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// runSmoke is the make-check gate: full job lifecycle plus the cache-hit
// guarantee, against a real listener.
func runSmoke(ctx context.Context, cfg flowserv.Config, stdout io.Writer) error {
	base, shutdown, err := startLocal(ctx, cfg)
	if err != nil {
		return err
	}
	defer shutdown() //nolint:errcheck // the fresh-run error already decided the verdict

	submit := func() (flowserv.Status, time.Duration, error) {
		start := time.Now()
		var st flowserv.Status
		err := postJSON(ctx, base+"/jobs", `{"gen":"dlx"}`, &st)
		if err != nil {
			return st, 0, err
		}
		for !terminal(st.State) {
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return st, 0, ctx.Err()
			}
			if err := getJSON(ctx, base+"/jobs/"+st.ID, &st); err != nil {
				return st, 0, err
			}
		}
		return st, time.Since(start), nil
	}

	fresh, freshTook, err := submit()
	if err != nil {
		return err
	}
	if fresh.State != flowserv.StateDone {
		return fmt.Errorf("fresh DLX job ended %s: %s", fresh.State, fresh.Error)
	}
	if fresh.Cached {
		return fmt.Errorf("fresh job claims to be cached")
	}
	freshNetlist, err := getBytes(ctx, base+"/jobs/"+fresh.ID+"/artifacts/"+flowserv.ArtifactNetlist)
	if err != nil {
		return err
	}

	hit, hitTook, err := submit()
	if err != nil {
		return err
	}
	if hit.State != flowserv.StateDone || !hit.Cached {
		return fmt.Errorf("resubmission not served from cache: state=%s cached=%v", hit.State, hit.Cached)
	}
	if hit.CacheKey != fresh.CacheKey {
		return fmt.Errorf("cache keys differ across identical submissions")
	}
	hitNetlist, err := getBytes(ctx, base+"/jobs/"+hit.ID+"/artifacts/"+flowserv.ArtifactNetlist)
	if err != nil {
		return err
	}
	if !bytes.Equal(freshNetlist, hitNetlist) {
		return fmt.Errorf("cached netlist differs from the fresh run's bytes")
	}
	if hitTook > freshTook/2 {
		return fmt.Errorf("cache hit took %v vs %v fresh — not instant", hitTook, freshTook)
	}
	if err := shutdown(); err != nil {
		return fmt.Errorf("drain after smoke: %w", err)
	}
	fmt.Fprintf(stdout, "drserve: smoke ok (fresh %v, cached %v, byte-identical netlist, drained)\n",
		freshTook.Round(time.Millisecond), hitTook.Round(time.Microsecond))
	return nil
}

func terminal(state string) bool {
	return state == flowserv.StateDone || state == flowserv.StateFailed ||
		state == flowserv.StateCanceled
}

func postJSON(ctx context.Context, url, body string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(req, v)
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(req, v)
}

func doJSON(req *http.Request, v any) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL, resp.StatusCode,
			strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
