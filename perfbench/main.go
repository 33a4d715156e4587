// Command perfbench is the repository's benchmark: it runs one workload
// against the real front ends — the drdesync binary, one child process at
// a time, or an in-process flowserv job server on loopback HTTP driven by
// two closed-loop clients — checks every output against pinned digests,
// and prints a table followed by one JSON line of metrics.
//
// Usage, from the repository root (run.sh builds drdesync and this
// command from the checkout first):
//
//	bash perfbench/run.sh --workload paper|flat-import|pipeline-50k|serve|all \
//	     --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh -pin
//
// --trace 0 measures the end-to-end metrics. --trace 1 instead runs an
// in-process replica of each job with a span around every call into a
// layer and reports the per-layer metrics; the spans are written as
// Chrome trace-event JSON next to the build. Every time is reported at a
// reference host speed (speed.go). -pin reruns every input of
// every seed variant and rewrites testdata/digests.txt. README.md in this
// directory defines the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// bench is one invocation's configuration.
type bench struct {
	root     string
	drdesync string
	work     string
	seconds  time.Duration
	digests  *digests
	// speed times the reference kernel through the current run.
	speed *speedMeter
}

var workloads = []string{"paper", "flat-import", "pipeline-50k", "serve"}

func main() {
	workload := flag.String("workload", "", "workload: paper, flat-import, pipeline-50k, serve, or all in turn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "measuring time of the run (required; BENCHMARK.json's run_seconds)")
	traceMode := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	root := flag.String("root", ".", "repository root")
	drdesync := flag.String("drdesync", "", "drdesync binary built from the repository")
	work := flag.String("work", "", "directory for generated inputs, outputs and traces")
	pin := flag.Bool("pin", false, "rerun every input of every seed variant and rewrite the pinned digests")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := func() error {
		if *drdesync == "" || *work == "" {
			return fmt.Errorf("-drdesync and -work are required (run through run.sh)")
		}
		if *seconds <= 0 && !*pin {
			return fmt.Errorf("--seconds is required and must be positive")
		}
		if err := os.MkdirAll(*work, 0o755); err != nil {
			return err
		}
		d, err := loadDigests(*root, *pin)
		if err != nil {
			return err
		}
		b := &bench{root: *root, drdesync: *drdesync, work: *work,
			seconds: time.Duration(*seconds * float64(time.Second)), digests: d}
		switch {
		case *pin:
			return b.pinAll(ctx)
		case *workload == "all":
			for _, w := range workloads {
				if err := b.runWorkload(ctx, w, *seed, *traceMode == 1); err != nil {
					return err
				}
			}
			return nil
		default:
			return b.runWorkload(ctx, *workload, *seed, *traceMode == 1)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its table and JSON line.
func (b *bench) runWorkload(ctx context.Context, workload string, seed int64, traced bool) error {
	var res *result
	var err error
	var t *tracer
	b.speed = newSpeedMeter()
	switch workload {
	case "serve":
		if traced {
			res, t, err = b.traceServeWorkload(ctx, seed)
		} else {
			res, err = b.runServeWorkload(ctx, seed)
		}
	case "paper", "flat-import", "pipeline-50k":
		var w *cliWorkload
		if w, err = newCLIWorkload(workload, seed, b.work); err != nil {
			return err
		}
		if traced {
			res, t, err = b.traceCLIWorkload(ctx, w)
		} else {
			res, err = b.runCLIWorkload(ctx, w)
		}
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return err
	}
	b.speed.normalize(res)
	defs := endToEnd
	if traced {
		defs = perLayer
		path := filepath.Join(b.work, "trace-"+workload+".json")
		if err := t.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
		t.writeTable(os.Stdout)
	}
	return res.write(os.Stdout, workload, defs)
}

// pinAll runs every input of every seed variant once through the tool and
// the job server and rewrites the benchmark's own digest table from the
// outputs. Outputs a repository golden table covers are checked, not
// re-pinned.
func (b *bench) pinAll(ctx context.Context) error {
	for _, name := range []string{"paper", "flat-import", "pipeline-50k"} {
		n := variants
		if name == "paper" {
			n = 1
		}
		for v := 0; v < n; v++ {
			w, err := newCLIWorkload(name, int64(v), b.work)
			if err != nil {
				return err
			}
			if err := w.writeInputs(); err != nil {
				return err
			}
			for _, j := range w.jobs {
				if _, _, err := b.runCLIJob(ctx, w, j); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "pinned %s variant %d\n", name, v)
		}
	}
	for v := 0; v < variants; v++ {
		s, err := newSchedule(int64(v))
		if err != nil {
			return err
		}
		pr, err := b.runPass(ctx, s, false)
		if err != nil {
			return err
		}
		for _, j := range pr.jobs {
			if j.err != nil {
				return j.err
			}
		}
		fmt.Fprintf(os.Stderr, "pinned serve variant %d\n", v)
	}
	return b.digests.writePinned(b.root)
}
