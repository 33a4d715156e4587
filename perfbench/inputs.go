package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// variants is how many distinct input sets the workload seed selects
// among. Every variant's outputs are pinned in testdata/digests.txt, so
// each run checks its outputs byte for byte whatever seed it is given.
const variants = 16

func variantOf(seed int64) int { return int(uint64(seed) % variants) }

// cliJob is one drdesync invocation of a CLI workload.
type cliJob struct {
	// name identifies the input in digests, traces and per-input medians.
	name string
	// spec is the designs.ParseSpec spec the input is built from: passed
	// with -gen, or written to inFile as flat Verilog at setup.
	spec    string
	inFile  string
	lib     stdcells.Variant
	backend string
	period  float64
	equiv   bool
}

// args renders the job as drdesync's command line, without the outputs.
func (j cliJob) args() []string {
	var a []string
	if j.inFile != "" {
		a = append(a, "-in", j.inFile)
	} else {
		a = append(a, "-gen", j.spec)
	}
	a = append(a, "-lib", string(j.lib), "-backend", j.backend)
	if j.period > 0 {
		a = append(a, "-period", fmt.Sprint(j.period))
	}
	if j.equiv {
		a = append(a, "-equiv")
	}
	return a
}

// cliWorkload is the input set of one CLI workload for one seed.
type cliWorkload struct {
	name    string
	variant int
	jobs    []cliJob
	// warmup indexes the job run once per setup, untimed by the run.
	warmup int
	// order shuffles the job order of each timed round.
	rng *rand.Rand
}

// paperJobs are the paper's case studies (§5) under both backends: DLX with
// the exhaustive equiv gate, the Low-Leakage ARM and the FIR.
func paperJobs() []cliJob {
	var jobs []cliJob
	for _, be := range []string{"desync", "twophase"} {
		jobs = append(jobs,
			cliJob{name: "dlx/" + be, spec: "dlx", lib: stdcells.HighSpeed, backend: be, period: 4.65, equiv: true},
			cliJob{name: "arm/" + be, spec: "arm", lib: stdcells.LowLeakage, backend: be},
			cliJob{name: "fir/" + be, spec: "fir", lib: stdcells.HighSpeed, backend: be, period: 6.0},
		)
	}
	return jobs
}

// flatDepths are the pipeline depths of flat-import: with a balanced
// fanout every flip-flop becomes its own region under automatic grouping,
// so width 64 gives 256, 384 and 512 regions. A round of the three takes
// about 3 s on the shared 2-vCPU host of README.md at its slow speed (768
// regions alone took 2.8 s).
var flatDepths = []int{4, 6, 8}

func flatSpec(depth, variant int) string {
	return fmt.Sprintf("pipeline:depth=%d,width=64,kind=mix,fanout=balanced,seed=%d", depth, 1+variant)
}

// pipeline50kSpec is a 49,984-instance pipeline in 16 regions: large
// enough that Size, Clean, Substitute and the Verilog writer dominate, and
// small enough that a run times five jobs within its budget on the shared
// 2-vCPU host of README.md at its slow speed (4–5 s a job; 100k instances
// took 8–10 s).
func pipeline50kSpec(variant int) string {
	return fmt.Sprintf("pipeline:depth=195,width=64,regions=16,seed=%d", 1+variant)
}

// newCLIWorkload returns the inputs of a CLI workload for a seed. Flat
// inputs are only named here; writeInputs generates them.
func newCLIWorkload(name string, seed int64, work string) (*cliWorkload, error) {
	w := &cliWorkload{name: name, variant: variantOf(seed), rng: rand.New(rand.NewSource(seed))}
	switch name {
	case "paper":
		w.jobs = paperJobs()
		w.warmup = 1 // arm/desync, the largest case study
	case "flat-import":
		for _, depth := range flatDepths {
			w.jobs = append(w.jobs, cliJob{
				name:    fmt.Sprintf("flat-%d", 64*depth),
				spec:    flatSpec(depth, w.variant),
				inFile:  filepath.Join(work, fmt.Sprintf("flat-%d.v", 64*depth)),
				lib:     stdcells.HighSpeed,
				backend: "desync",
			})
		}
		w.warmup = 0
	case "pipeline-50k":
		w.jobs = []cliJob{{name: "pipeline-50k", spec: pipeline50kSpec(w.variant), lib: stdcells.HighSpeed, backend: "desync"}}
	default:
		return nil, fmt.Errorf("unknown CLI workload %q", name)
	}
	return w, nil
}

// writeInputs generates the workload's flat Verilog inputs: the generator
// output written with no hierarchy, so the tool groups it automatically.
func (w *cliWorkload) writeInputs() error {
	for _, j := range w.jobs {
		if j.inFile == "" {
			continue
		}
		text, err := flatVerilog(j.spec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(j.inFile, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// flatVerilog builds a generated design and writes it as one flat module.
func flatVerilog(spec string) (string, error) {
	d, err := designs.ParseSpec(spec, stdcells.New(stdcells.HighSpeed))
	if err != nil {
		return "", err
	}
	return verilog.Write(d), nil
}

// order returns a seeded permutation of the job indices for one round.
func (w *cliWorkload) order() []int { return w.rng.Perm(len(w.jobs)) }

// ecoEdit swaps one XOR2X1 instance of a flat netlist for the
// pin-compatible XNOR2X1: a one-cell engineering change inside a single
// region. pick selects which XOR instance, modulo their count.
func ecoEdit(text string, pick int) (string, error) {
	lines := strings.SplitAfter(text, "\n")
	var xors []int
	for i, l := range lines {
		if strings.HasPrefix(l, "  XOR2X1 ") {
			xors = append(xors, i)
		}
	}
	if len(xors) == 0 {
		return "", fmt.Errorf("eco: no XOR2X1 instance to swap")
	}
	i := xors[pick%len(xors)]
	lines[i] = "  XNOR2X1 " + strings.TrimPrefix(lines[i], "  XOR2X1 ")
	return strings.Join(lines, ""), nil
}
