package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts: other tenants
// contend for the caches and memory, and a job's wall and CPU time can
// double within a minute while a compute-only loop does not move. Every
// time metric is therefore reported in reference seconds: the measured
// time scaled by refKernelSeconds over the median time of a fixed
// reference kernel, timed between the jobs of the same run. The kernel is
// the benchmark's own code, so a change to the program moves only the
// measured side; the table also prints every time as measured.

// refKernelSeconds is the reference kernel's time at the reference speed:
// a job that takes as long as ten kernels reads 1 s.
const refKernelSeconds = 0.1

// calibShare is the share of a run's wall the kernel takes. It runs
// between jobs, never beside one, so it does not contend with them.
const calibShare = 0.15

// Size of the reference kernel's graph and the number of nodes its walk
// reaches, which checks that the kernel did all its work.
const (
	refNodes = 40000
	refReach = 40000
)

type refNode struct {
	name string
	outs []*refNode
	seen bool
}

// refKernel builds a graph of named nodes in a map, links each node to
// three others by name lookup, sorts the names and walks the graph
// breadth first: the allocation, hashing and pointer chasing a conversion
// job is made of. It returns the number of nodes the walk reaches.
func refKernel() int {
	byName := make(map[string]*refNode)
	nodes := make([]*refNode, 0, 1024)
	for i := 0; i < refNodes; i++ {
		n := &refNode{name: "n" + strconv.Itoa(i*7919%refNodes)}
		byName[n.name] = n
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		for k := 0; k < 3; k++ {
			n.outs = append(n.outs, byName["n"+strconv.Itoa((i+1+k*131)*7919%refNodes)])
		}
	}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		names = append(names, n.name)
	}
	sort.Strings(names)
	reached := 0
	queue := []*refNode{byName[names[0]]}
	queue[0].seen = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		reached++
		for _, o := range n.outs {
			if !o.seen {
				o.seen = true
				queue = append(queue, o)
			}
		}
	}
	return reached
}

// speedMeter times the reference kernel through one run.
type speedMeter struct {
	start time.Time
	// spent is the kernel's own time, busy all the time tick took,
	// collections included.
	spent, busy time.Duration
	samples     []float64
}

func newSpeedMeter() *speedMeter { return &speedMeter{start: time.Now()} }

// tick runs the kernel until it has taken calibShare of the run's wall so
// far, and at least once per run. Callers call it between jobs and leave
// busy out of what they measure. Each kernel starts from a heap collected
// and returned to the system, as every measured job does (a CLI job is a
// new process; a serve pass starts the same way), so it pays the same page
// faults; after a plain collection it tracked serve's passes less well.
func (m *speedMeter) tick() error {
	t0 := time.Now()
	defer func() { m.busy += time.Since(t0) }()
	for len(m.samples) == 0 || m.spent.Seconds() < calibShare*time.Since(m.start).Seconds() {
		debug.FreeOSMemory()
		start := time.Now()
		n := refKernel()
		d := time.Since(start)
		if n != refReach {
			return fmt.Errorf("reference kernel reached %d nodes, want %d", n, refReach)
		}
		m.spent += d
		m.samples = append(m.samples, d.Seconds())
	}
	return nil
}

// scale is the factor from measured to reference seconds.
func (m *speedMeter) scale() float64 {
	return refKernelSeconds / median(m.samples)
}

// normalize converts every time metric of res (unit s or 1/s) to the
// reference speed and keeps the measured value as a table-only line.
func (m *speedMeter) normalize(res *result) {
	f := m.scale()
	// The table-only lines first, so the measured values added to them
	// are not scaled again.
	for _, set := range []map[string]metric{res.info, res.metrics} {
		for _, name := range sortedKeys(set) {
			v := set[name]
			switch v.Unit {
			case "s":
				set[name] = metric{Value: v.Value * f, Unit: v.Unit}
			case "1/s":
				set[name] = metric{Value: v.Value / f, Unit: v.Unit}
			default:
				continue
			}
			res.info["measured."+name] = v
		}
	}
	res.notef("host speed: reference kernel %.4g s, median of %d in %.4g..%.4g s; times scaled by %.4g",
		median(m.samples), len(m.samples), sortedCopy(m.samples)[0], sortedCopy(m.samples)[len(m.samples)-1], f)
}
