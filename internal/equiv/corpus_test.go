package equiv_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/netlist"
)

// corpusSpecs are the converted designs the explorer corpus searches, by
// the short names its report groups use. Each is searched at the default
// budget, and reduced and unreduced at corpusBudgets; the first, third and
// fourth also get corpusMutations seeded cuts and rewires each.
var corpusSpecs = []struct{ name, spec string }{
	{"dlx", "dlx"},
	{"arm", "arm"},
	{"fir", "fir"},
	{"pipe4", "pipeline:depth=4,width=8,regions=4"},
	{"pipe5", "pipeline:depth=6,width=8,regions=5,fanout=tree,seed=3"},
}

var corpusBudgets, corpusMutations = []int{1, 7, 500, 20_000}, int64(12)

// corpusPins are the explorer's reports over the corpus: per group, the
// first 8 hex digits of the sha256 of each report's WriteJSON plus
// WriteText output, in corpus order. They hold the search order, the
// truncation point, the hazard fold and every counterexample to the byte.
var corpusPins = map[string]string{
	"dlx/reduced":   "65cbfebb fad05546 aae8f72b 210ee2c3 80409f66",
	"dlx/full":      "67afe48f 21bd812f 5907dbb7 6dc63071",
	"arm/reduced":   "5038a8eb e173a5f6 a113a2fa 9e41fdff db548c89",
	"arm/full":      "4d8a629d 29c7b2aa 21386cf5 1c2eb48e",
	"fir/reduced":   "6cbdd0e3 cd12eb42 aaaa6205 c8447e10 6db1e431",
	"fir/full":      "6f26812b 555c87e2 227f4bc4 704dd1b4",
	"pipe4/reduced": "f44fdd26 6b002182 e0788367 f7f5d1f5 0889d3dd",
	"pipe4/full":    "3c378fc1 ae74f445 fb6e8ad2 33f251df",
	"pipe5/reduced": "fbfadaaf 9e36532a 0d6cbf71 743b2137 76049eab",
	"pipe5/full":    "60b56455 b8ae5e46 4e5c4872 c03dce53",
	"fixtures":      "a0cd080b 4ec0c138 88c7732a",
	"dlx/cuts":      "7db5534a ba44e520 77d8996e d98fec6c 1c6e32b0 a46f1535 067479b7 b3ec2b56 d98fec6c 1a5344f5 e2b26c90 d1b92b88",
	"dlx/rewires":   "c596d7e2 e0f53c61 65cbfebb 75d9157a 93189932 65cbfebb 9945e04f fcef3f58 990b52ec d52caffa 65cbfebb 196ce685",
	"fir/cuts":      "e9a334ed 6cbdd0e3 3e3e106d 05658df9 6cbdd0e3 639c525f 6cbdd0e3 6cbdd0e3 6cbdd0e3 6cbdd0e3 43e07d08 74e9b386",
	"fir/rewires":   "6cbdd0e3 6cbdd0e3 1843b4f7 6cbdd0e3 6cbdd0e3 6cbdd0e3 355c4007 6cbdd0e3 6cbdd0e3 6cbdd0e3 6cbdd0e3 74e9b386",
	"pipe4/cuts":    "e50ba27d f44fdd26 23eaa4d1 f44fdd26 c752a872 2b852bbb f44fdd26 6a81c5d1 f44fdd26 c83b3c9c f36370a8 eccffc5c",
	"pipe4/rewires": "826b1ec4 5b829374 f44fdd26 7264fddb 3219c96a f44fdd26 320427dd 6cdc5a24 2fd4c00b 895dd576 27bc14f4 eccffc5c",
}

// TestExploreCorpusDigests searches a fixed corpus of healthy, truncated
// and broken control networks and compares every report with its pin: the
// corpusSpecs searches, the known-bad fixtures, and seeded single-pin cuts
// and input-pin rewires of controller cells (seed k draws the k-th
// mutation). The corpus must produce every outcome the explorer has: a
// proof, a truncation, each violation rule and hazard notes. The first
// report of a group that differs from its pin is logged in full.
func TestExploreCorpusDigests(t *testing.T) {
	count, seen, differs := map[string]int{}, map[string]bool{}, map[string]bool{}
	add := func(group, label string, res *equiv.Result) {
		var b strings.Builder
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		res.WriteText(&b)
		sum := sha256.Sum256([]byte(b.String()))
		digest := hex.EncodeToString(sum[:4])
		t.Logf("%s %s %s", group, digest, label)
		want, i := strings.Fields(corpusPins[group]), count[group]
		if (i >= len(want) || want[i] != digest) && !differs[group] {
			differs[group] = true
			t.Errorf("%s: report %d (%s) differs from its pin:\n%s", group, i, label, b.String())
		}
		count[group]++
		seen["clean"] = seen["clean"] || res.Clean()
		seen["truncated"] = seen["truncated"] || res.Truncated
		seen["hazards"] = seen["hazards"] || len(res.Hazards) > 0
		if res.Violation != nil {
			seen[res.Violation.Rule] = true
		}
	}
	explore := func(mod *netlist.Module, opts equiv.ExploreOptions) *equiv.Result {
		m, err := equiv.FromNetwork(mod, ctrlnet.Derive(mod))
		var res *equiv.Result
		if err == nil {
			res, err = m.Explore(context.Background(), opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, d := range corpusSpecs {
		mod := equiv.Converted(t, d.spec).Top
		add(d.name+"/reduced", "default budget", explore(mod, equiv.ExploreOptions{}))
		for _, noReduce := range []bool{false, true} {
			group := map[bool]string{false: "/reduced", true: "/full"}[noReduce]
			for _, max := range corpusBudgets {
				add(d.name+group, fmt.Sprintf("budget %d", max), explore(mod, equiv.ExploreOptions{MaxStates: max, NoReduce: noReduce}))
			}
		}
	}
	for _, fx := range fixtures {
		d := equiv.Converted(t, "dlx")
		fx.mutate(t, d)
		add("fixtures", fx.name, explore(d.Top, equiv.ExploreOptions{}))
	}
	for _, d := range []struct{ name, spec string }{corpusSpecs[0], corpusSpecs[2], corpusSpecs[3]} {
		for _, rewire := range []bool{false, true} {
			group := map[bool]string{false: "/cuts", true: "/rewires"}[rewire]
			for seed := int64(1); seed <= corpusMutations; seed++ {
				mod := equiv.Converted(t, d.spec).Top
				label := mutateControlPin(mod, rand.New(rand.NewSource(seed)), rewire)
				add(d.name+group, fmt.Sprintf("seed %d: %s", seed, label), explore(mod, equiv.ExploreOptions{}))
			}
		}
	}

	for group, pin := range corpusPins {
		if n := len(strings.Fields(pin)); count[group] != n {
			t.Errorf("%s: %d reports, pinned %d", group, count[group], n)
		}
	}
	for _, o := range []string{"clean", "truncated", equiv.RuleDeadlock, equiv.RuleSafety, equiv.RuleFlow, "hazards"} {
		if !seen[o] {
			t.Errorf("no report in the corpus has outcome %s", o)
		}
	}
}

// mutateControlPin draws a controller cell from rng and disconnects one of
// its pins or, with rewire, moves one of its input pins onto another net a
// controller cell drives. It names the mutation.
func mutateControlPin(mod *netlist.Module, rng *rand.Rand, rewire bool) string {
	var ctrl []*netlist.Inst
	var driven []*netlist.Net
	for _, in := range mod.Insts {
		if in.Origin != "ctrl" {
			continue
		}
		ctrl = append(ctrl, in)
		for _, pc := range in.Conns() {
			if pc.Dir != netlist.In {
				driven = append(driven, pc.Net)
			}
		}
	}
	for {
		in := ctrl[rng.Intn(len(ctrl))]
		if !rewire {
			pc := in.Conns()[rng.Intn(len(in.Conns()))]
			mod.Disconnect(in, pc.Pin)
			return fmt.Sprintf("cut %s.%s from %s", in.Name, pc.Pin, pc.Net.Name)
		}
		var ins []netlist.PinConn
		for _, pc := range in.Conns() {
			if pc.Dir == netlist.In {
				ins = append(ins, pc)
			}
		}
		if len(ins) == 0 {
			continue
		}
		pc, to := ins[rng.Intn(len(ins))], driven[rng.Intn(len(driven))]
		if to != pc.Net {
			mod.Disconnect(in, pc.Pin)
			mod.MustConnect(in, pc.Pin, to)
			return fmt.Sprintf("rewire %s.%s from %s to %s", in.Name, pc.Pin, pc.Net.Name, to.Name)
		}
	}
}
