package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"desync/internal/designs"
	"desync/internal/stdcells"
)

// Each run sets up at least minSetupReps times and keeps repeating until
// the set-ups have taken minSetupTime (at most maxSetupReps times);
// setup_s is the median, so a cheap set-up is sampled often enough to be
// steady. A set-up that alone takes minSetupTime (pipeline-50k's warm-up
// job) runs once, so the run's time goes to the timed jobs instead.
const (
	minSetupReps = 3
	maxSetupReps = 9
	minSetupTime = 3 * time.Second
)

// minTimedRounds is the fewest timed rounds a CLI run makes, however long
// they take, so every input's median rests on at least that many samples.
const minTimedRounds = 5

// repeatSetup runs one set-up repeatedly under that rule, timing the host
// speed before each, and returns the median time.
func (b *bench) repeatSetup(setup func() (float64, error)) (float64, error) {
	var times []float64
	total := 0.0
	for len(times) < maxSetupReps {
		if err := b.speed.tick(); err != nil {
			return 0, err
		}
		t, err := setup()
		if err != nil {
			return 0, err
		}
		times = append(times, t)
		total += t
		if total >= minSetupTime.Seconds() && (len(times) >= minSetupReps || t >= minSetupTime.Seconds()) {
			break
		}
	}
	return median(times), nil
}

// childRun is one drdesync process: wall time from exec to exit and the
// kernel's rusage accounting of it.
type childRun struct {
	wall, cpu, rssMB float64
}

// runChild runs the tool with stdout and stderr captured in logPath; a
// canceled ctx kills it.
func runChild(ctx context.Context, bin string, args []string, logPath string) (childRun, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return childRun{}, err
	}
	defer log.Close()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return childRun{}, fmt.Errorf("drdesync %v: %v (output in %s)", args, err, logPath)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}, fmt.Errorf("no rusage for drdesync")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return childRun{wall: wall, cpu: cpu, rssMB: float64(ru.Maxrss) / 1024}, nil
}

// runCLIJob runs one job through the real drdesync and checks both
// outputs against their pinned digests. It returns the output bytes.
func (b *bench) runCLIJob(ctx context.Context, w *cliWorkload, j cliJob) (childRun, map[string][]byte, error) {
	outV := filepath.Join(b.work, "out.v")
	outSDC := filepath.Join(b.work, "out.sdc")
	for _, p := range []string{outV, outSDC} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return childRun{}, nil, err
		}
	}
	args := append(j.args(), "-out", outV, "-sdc", outSDC)
	r, err := runChild(ctx, b.drdesync, args, filepath.Join(b.work, "drdesync.log"))
	if err != nil {
		return r, nil, err
	}
	arts := map[string][]byte{}
	for art, p := range map[string]string{"netlist.v": outV, "constraints.sdc": outSDC} {
		data, err := os.ReadFile(p)
		if err != nil {
			return r, nil, err
		}
		if err := b.digests.check(cliDigestKey(w, j, art), data); err != nil {
			return r, nil, fmt.Errorf("%s: %w", j.name, err)
		}
		arts[art] = data
	}
	return r, arts, nil
}

// setupCLI generates the workload's inputs and runs its warm-up job, the
// work done before the first timed job can start; it returns the time and
// the warm-up child's peak RSS.
func (b *bench) setupCLI(ctx context.Context, w *cliWorkload) (float64, float64, error) {
	start := time.Now()
	if err := w.writeInputs(); err != nil {
		return 0, 0, err
	}
	r, _, err := b.runCLIJob(ctx, w, w.jobs[w.warmup])
	if err != nil {
		return 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(start).Seconds(), r.rssMB, nil
}

// runCLIWorkload is the untraced run of a CLI workload: set up as
// repeatSetup says, then run whole seeded rounds over every input, one
// child at a time, until the measuring time is spent and at least
// minTimedRounds rounds are done.
func (b *bench) runCLIWorkload(ctx context.Context, w *cliWorkload) (*result, error) {
	res := newResult()
	// peak_rss_mb is the highest child maxrss of the whole run, warm-ups
	// included: the maximum over more children repeats more closely.
	peak := 0.0
	setup, err := b.repeatSetup(func() (float64, error) {
		t, rss, err := b.setupCLI(ctx, w)
		peak = max(peak, rss)
		return t, err
	})
	if err != nil {
		return nil, err
	}
	walls := map[string][]float64{}
	cpus := map[string][]float64{}
	ok := 0
	start, busy0 := time.Now(), b.speed.busy
	for round := 0; round < minTimedRounds || time.Since(start) < b.seconds; round++ {
		for _, i := range w.order() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := b.speed.tick(); err != nil {
				return nil, err
			}
			j := w.jobs[i]
			res.attempted++
			r, _, err := b.runCLIJob(ctx, w, j)
			if err != nil {
				res.fail(err)
				continue
			}
			ok++
			walls[j.name] = append(walls[j.name], r.wall)
			cpus[j.name] = append(cpus[j.name], r.cpu)
			peak = max(peak, r.rssMB)
		}
	}
	// The kernel's turns between the jobs are not the tool's time.
	elapsed := (time.Since(start) - (b.speed.busy - busy0)).Seconds()
	res.add("setup_s", setup, "s")
	res.add("jobs_per_s", float64(ok)/elapsed, "1/s")
	res.add("job_s_p50", medianOfGroups(walls), "s")
	res.add("cpu_s_per_job", medianOfGroups(cpus), "s")
	res.add("peak_rss_mb", peak, "MB")
	res.notef("%d jobs over %d inputs in %.2f s; samples×median wall per input:%s", ok, len(w.jobs), elapsed, sampleCounts(walls))
	res.addInfo("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	return res, nil
}

// replicaInputOf describes a CLI job for the in-process replica.
func replicaInputOf(j cliJob) (replicaInput, error) {
	in := replicaInput{
		name: j.name, spec: j.spec, lib: stdcells.New(j.lib),
		backend: j.backend, period: j.period, equiv: j.equiv,
	}
	if j.inFile != "" {
		text, err := os.ReadFile(j.inFile)
		if err != nil {
			return in, err
		}
		in.text = string(text)
	} else {
		// drdesync implies -manual-groups for pre-grouped generators.
		in.manualGroups = designs.PreGrouped(j.spec)
	}
	return in, nil
}

// traceCLIWorkload is the traced run of a CLI workload. After the same
// setup it runs every input once through drdesync, then whole rounds of
// the in-process replica, each input untraced and then traced, until the
// measuring time is spent. The replica's bytes must equal the tool's.
func (b *bench) traceCLIWorkload(ctx context.Context, w *cliWorkload) (*result, *tracer, error) {
	res := newResult()
	if _, err := b.repeatSetup(func() (float64, error) {
		t, _, err := b.setupCLI(ctx, w)
		return t, err
	}); err != nil {
		return nil, nil, err
	}
	ins := make([]replicaInput, len(w.jobs))
	cliOut := make([]map[string][]byte, len(w.jobs))
	for i, j := range w.jobs {
		res.attempted++
		_, arts, err := b.runCLIJob(ctx, w, j)
		if err != nil {
			res.fail(err)
			continue
		}
		cliOut[i] = arts
		if ins[i], err = replicaInputOf(j); err != nil {
			return nil, nil, err
		}
	}
	t := newTracer()
	acc := newLayerAcc(t)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < b.seconds; round++ {
		for _, i := range w.order() {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if cliOut[i] == nil {
				continue
			}
			if err := b.speed.tick(); err != nil {
				return nil, nil, err
			}
			res.attempted += 2
			if err := acc.runPair(ctx, ins[i], cliOut[i], round%2 == 1); err != nil {
				res.fail(err)
			}
		}
	}
	acc.report(res)
	res.add("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	return res, t, nil
}

// sameBytes holds the replica's outputs against the tool's.
func sameBytes(name string, want map[string][]byte, got replicaOut) error {
	if !bytes.Equal(want["netlist.v"], got.netlist) {
		return fmt.Errorf("%s: replica netlist differs from drdesync's", name)
	}
	if !bytes.Equal(want["constraints.sdc"], got.sdc) {
		return fmt.Errorf("%s: replica constraints differ from drdesync's", name)
	}
	return nil
}

// sampleCounts lists each input's sample count and median.
func sampleCounts(groups map[string][]float64) string {
	s := ""
	for _, k := range sortedKeys(groups) {
		s += fmt.Sprintf(" %s=%d×%.4g", k, len(groups[k]), median(groups[k]))
	}
	return s
}
