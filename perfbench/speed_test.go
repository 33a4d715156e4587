package main

import "testing"

func TestRefKernelReachesEveryNode(t *testing.T) {
	if n := refKernel(); n != refReach {
		t.Fatalf("reference kernel reached %d nodes, want %d", n, refReach)
	}
}

// A kernel at twice the reference time means a host at half speed: times
// halve, rates double, other units stay, and the measured values are kept
// once as table-only lines.
func TestNormalizeScalesTimesOnly(t *testing.T) {
	m := &speedMeter{samples: []float64{2 * refKernelSeconds, 2 * refKernelSeconds, 3 * refKernelSeconds}}
	res := newResult()
	res.add("setup_s", 4, "s")
	res.add("jobs_per_s", 5, "1/s")
	res.add("peak_rss_mb", 100, "MB")
	res.addInfo("flowserv.hit_s_p50", 0.5, "s")
	res.addInfo("fail_ratio", 0.25, "ratio")
	m.normalize(res)

	for name, want := range map[string]float64{"setup_s": 2, "jobs_per_s": 10, "peak_rss_mb": 100} {
		if got := res.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"flowserv.hit_s_p50":          0.25,
		"fail_ratio":                  0.25,
		"measured.setup_s":            4,
		"measured.jobs_per_s":         5,
		"measured.flowserv.hit_s_p50": 0.5,
	} {
		if got := res.info[name].Value; got != want {
			t.Errorf("info %s = %v, want %v", name, got, want)
		}
	}
	for name := range res.info {
		if name == "measured.measured.setup_s" || name == "measured.peak_rss_mb" || name == "measured.fail_ratio" {
			t.Errorf("unexpected table line %s", name)
		}
	}
}
