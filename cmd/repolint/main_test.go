package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestRepoClean runs the checker over the actual repository; the conventions
// it enforces must hold on every commit.
func TestRepoClean(t *testing.T) {
	var sb strings.Builder
	n, err := run("../..", &sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("repolint reported %d finding(s) on the tree:\n%s", n, sb.String())
	}
}

// check parses src as the file named rel and returns the rule IDs fired.
func check(t *testing.T, rel, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, fd := range checkFile(fset, rel, f) {
		rules = append(rules, fd.rule)
	}
	return rules
}

func TestPanicOutsideAllowlistFires(t *testing.T) {
	src := `package foo
func Bad() { panic("boom") }
`
	got := check(t, "internal/foo/foo.go", src)
	if len(got) != 1 || got[0] != "RL-PANIC" {
		t.Fatalf("want [RL-PANIC], got %v", got)
	}
}

func TestAllowlistedPanicAccepted(t *testing.T) {
	src := `package netlist
func (m *Module) MustConnect(a, b int) { panic("bad connect") }
`
	if got := check(t, "internal/netlist/design.go", src); len(got) != 0 {
		t.Fatalf("allowlisted panic flagged: %v", got)
	}
}

func TestStageArgRuleFires(t *testing.T) {
	src := `package core
func f() error { return flowErr("import", "d", "", nil) }
func g() error { return flowErr(StageImport, "d", "", nil) }
func h(stage string) error { return flowErr(stage, "d", "", nil) }
`
	got := check(t, "internal/core/other.go", src)
	if len(got) != 1 || got[0] != "RL-STAGE" {
		t.Fatalf("want exactly one RL-STAGE for the string literal, got %v", got)
	}
}

func TestFlowReturnRuleFires(t *testing.T) {
	src := `package core
import "fmt"
func Convert() (int, error) {
	if true {
		return 0, fmt.Errorf("bare")
	}
	f := func() error { return fmt.Errorf("nested bare") }
	_ = f
	return 1, nil
}
`
	got := check(t, "internal/core/flow.go", src)
	var flow int
	for _, r := range got {
		if r == "RL-FLOW" {
			flow++
		}
	}
	if flow != 2 {
		t.Fatalf("want 2 RL-FLOW findings (outer + nested literal), got %v", got)
	}
}

func TestFlowReturnRuleScopedToDriver(t *testing.T) {
	src := `package core
import "fmt"
func ecoMeasure() error { return fmt.Errorf("bare but legal here") }
`
	if got := check(t, "internal/core/eco.go", src); len(got) != 0 {
		t.Fatalf("RL-FLOW leaked outside flow.go: %v", got)
	}
}

func TestBackendRuleFiresOnCoreImport(t *testing.T) {
	src := `package core
import "desync/internal/twophase"
var _ = twophase.RstPortName
`
	got := check(t, "internal/core/backend.go", src)
	if len(got) != 1 || got[0] != "RL-BACKEND" {
		t.Fatalf("want [RL-BACKEND] for core importing a backend, got %v", got)
	}
}

func TestBackendRuleFiresOnFlowErrorMint(t *testing.T) {
	src := `package twophase
import "desync/internal/core"
func (backend) Size() error {
	return &core.FlowError{Stage: core.StageSize}
}
`
	got := check(t, "internal/twophase/backend.go", src)
	if len(got) != 1 || got[0] != "RL-BACKEND" {
		t.Fatalf("want [RL-BACKEND] for a backend minting a FlowError, got %v", got)
	}
}

func TestBackendRuleAllowsInvertedImports(t *testing.T) {
	// A backend importing core (registration, options, shared substitution)
	// is the designed direction; so is a cmd driver importing both.
	src := `package twophase
import "desync/internal/core"
func init() { core.RegisterBackend(nil) }
`
	if got := check(t, "internal/twophase/backend.go", src); len(got) != 0 {
		t.Fatalf("backend importing core flagged: %v", got)
	}
	cmd := `package main
import (
	"desync/internal/core"
	"desync/internal/twophase"
)
var _ = core.BackendTwoPhase
var _ = twophase.RstPortName
`
	if got := check(t, "cmd/drdesync/main.go", cmd); len(got) != 0 {
		t.Fatalf("cmd driver importing a backend flagged: %v", got)
	}
}

func TestBackendRuleMintAllowlist(t *testing.T) {
	src := `package vflow
import "desync/internal/core"
func stageError() error {
	return &core.FlowError{Stage: core.StageStatic}
}
func otherGate() error {
	return &core.FlowError{Stage: core.StageStatic}
}
`
	got := check(t, "internal/vflow/gates.go", src)
	if len(got) != 1 || got[0] != "RL-BACKEND" {
		t.Fatalf("want [RL-BACKEND] only for the unaudited mint, got %v", got)
	}
}

func TestGatesRuleFires(t *testing.T) {
	cli := `package main
import (
	"desync/internal/core"
	"desync/internal/mga"
)
var _ = mga.StateEstimate
var _ = core.StageStatic
`
	if got := check(t, "cmd/drdesync/static.go", cli); len(got) != 1 || got[0] != "RL-GATES" {
		t.Fatalf("want [RL-GATES] for drdesync importing mga, got %v", got)
	}
	srv := `package flowserv
import (
	"desync/internal/equiv"
	"desync/internal/faults"
)
var _ = equiv.DefaultMaxStates
var _ = faults.NewCampaign
`
	if got := check(t, "internal/flowserv/run.go", srv); len(got) != 2 || got[0] != "RL-GATES" || got[1] != "RL-GATES" {
		t.Fatalf("want two RL-GATES findings for flowserv importing equiv and faults, got %v", got)
	}
}

func TestGatesRuleScopedToFrontEnds(t *testing.T) {
	// The owner sequences the engines; other tools drive them directly.
	src := `package vflow
import (
	"desync/internal/equiv"
	"desync/internal/faults"
	"desync/internal/mga"
)
var _ = equiv.DefaultMaxStates
var _ = faults.NewCampaign
var _ = mga.StateEstimate
`
	for _, rel := range []string{"internal/vflow/gates.go", "cmd/drequiv/main.go", "internal/sweep/run.go"} {
		if got := check(t, rel, src); len(got) != 0 {
			t.Fatalf("RL-GATES fired outside the front ends (%s): %v", rel, got)
		}
	}
}

func TestCtrlnetRuleFires(t *testing.T) {
	src := `package faults
import "fmt"
func names(g int) []string {
	n := fmt.Sprintf("G%d_%s", g, "mri")
	r, _ := handshake.ControlRegion("G1_Mctrl/g")
	_ = r
	return []string{n}
}
`
	got := check(t, "internal/faults/campaign.go", src)
	var ctrl int
	for _, r := range got {
		if r == "RL-CTRLNET" {
			ctrl++
		}
	}
	if ctrl != 2 {
		t.Fatalf("want 2 RL-CTRLNET findings (format string + ControlRegion call), got %v", got)
	}
}

func TestCtrlnetRuleCoversCmd(t *testing.T) {
	src := `package main
func net(g int) string { return fmt.Sprintf("G%d_mri", g) }
`
	got := check(t, "cmd/drdesync/main.go", src)
	if len(got) != 1 || got[0] != "RL-CTRLNET" {
		t.Fatalf("want [RL-CTRLNET] for a G%%d_ literal under cmd/, got %v", got)
	}
}

func TestCtrlnetRuleExemptsOwners(t *testing.T) {
	src := `package ctrlnet
func Name(g int, suffix string) string { return fmt.Sprintf("G%d_%s", g, suffix) }
`
	if got := check(t, "internal/ctrlnet/names.go", src); len(got) != 0 {
		t.Fatalf("RL-CTRLNET fired inside its owner package: %v", got)
	}
	src2 := `package handshake
func ControlRegion(name string) (int, bool) { _ = "G%d_"; return 0, false }
`
	if got := check(t, "internal/handshake/handshake.go", src2); len(got) != 0 {
		t.Fatalf("RL-CTRLNET fired inside internal/handshake: %v", got)
	}
}

func TestOptsRuleFires(t *testing.T) {
	src := `package foo
func Tune(cycles, workers int, margin float64, verbose bool, name string) {}
`
	got := check(t, "internal/foo/foo.go", src)
	if len(got) != 1 || got[0] != "RL-OPTS" {
		t.Fatalf("want [RL-OPTS] for five scalar parameters, got %v", got)
	}
}

func TestOptsRuleIgnoresNonScalars(t *testing.T) {
	// Pointers, structs, slices, funcs and contexts are not configuration
	// scalars; four scalars is the documented ceiling; unexported functions
	// are free to be as positional as they like.
	src := `package foo
import "context"
func Run(ctx context.Context, d *Design, opts Options, cycles, workers int, margin float64, verbose bool) {}
func internalHelper(a, b, c, d, e, f int) {}
`
	if got := check(t, "internal/foo/foo.go", src); len(got) != 0 {
		t.Fatalf("RL-OPTS overcounted: %v", got)
	}
}

func TestOptsRuleAllowlist(t *testing.T) {
	src := `package designs
func Encode(op, rd, rs1, rs2, imm int) uint16 { return 0 }
`
	if got := check(t, "internal/designs/dlx.go", src); len(got) != 0 {
		t.Fatalf("allowlisted assembler helper flagged: %v", got)
	}
	if got := check(t, "internal/other/dlx.go", src); len(got) != 1 || got[0] != "RL-OPTS" {
		t.Fatalf("allowlist must be path-specific, got %v", got)
	}
}

func TestRecoverOutsideAllowlistFires(t *testing.T) {
	// A recover inside a deferred closure is pinned to the top-level
	// function that defers it, so hiding one in a defer still fires.
	src := `package foo
func Swallow() {
	defer func() {
		if r := recover(); r != nil {
		}
	}()
}
`
	got := check(t, "internal/foo/foo.go", src)
	if len(got) != 1 || got[0] != "RL-RECOVER" {
		t.Fatalf("want [RL-RECOVER] for a recover outside the audited boundaries, got %v", got)
	}
}

func TestRecoverQuarantineBoundaryAccepted(t *testing.T) {
	src := `package sweep
func runQuarantined() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return nil
}
`
	if got := check(t, "internal/sweep/run.go", src); len(got) != 0 {
		t.Fatalf("quarantine boundary flagged: %v", got)
	}
	// The boundary is the named function in the named file, nothing wider.
	if got := check(t, "internal/sweep/other.go", src); len(got) != 1 || got[0] != "RL-RECOVER" {
		t.Fatalf("allowlist must be path-specific, got %v", got)
	}
}

func TestRecoverCmdBoundaryAccepted(t *testing.T) {
	src := `package main
func main() {
	defer func() { recover() }()
}
func helper() { defer func() { recover() }() }
`
	got := check(t, "cmd/drdesync/main.go", src)
	if len(got) != 1 || got[0] != "RL-RECOVER" {
		t.Fatalf("want exactly the helper's recover flagged (main is the boundary), got %v", got)
	}
}

// TestEquivPanicPolicy pins the formal engine to the no-panic policy: a
// panic introduced anywhere in internal/equiv is flagged, because the
// package has no allowlisted sites — and must not silently grow any, since
// a panic mid-exploration would take down a drdesync -equiv run instead of
// producing a finding.
func TestEquivPanicPolicy(t *testing.T) {
	src := `package equiv
func (m *Model) explode() { panic("unaudited") }
`
	got := check(t, "internal/equiv/explore.go", src)
	if len(got) != 1 || got[0] != "RL-PANIC" {
		t.Fatalf("want [RL-PANIC] for a panic in internal/equiv, got %v", got)
	}
	for key := range panicAllowlist {
		if strings.HasPrefix(key, "internal/equiv/") {
			t.Fatalf("internal/equiv must stay panic-free, but %q is allowlisted", key)
		}
	}
}

func TestMapOrderRuleFires(t *testing.T) {
	// Appending in map-iteration order without a sort is the footgun.
	src := `package foo
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	got := check(t, "internal/foo/foo.go", src)
	if len(got) != 1 || got[0] != "RL-MAPORDER" {
		t.Fatalf("want [RL-MAPORDER], got %v", got)
	}
}

func TestMapOrderSortNeutralizes(t *testing.T) {
	// Collect-then-sort is the canonical deterministic idiom and must pass.
	src := `package foo
import "sort"
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	if got := check(t, "internal/foo/foo.go", src); len(got) != 0 {
		t.Fatalf("sorted collection flagged: %v", got)
	}
}

func TestMapOrderIgnoresOrderFreeBodies(t *testing.T) {
	// Accumulation (sums, maxima, map writes, deletes) is commutative;
	// only bodies that emit elements in visit order are flagged.
	src := `package foo
func Total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
func Invert(m map[string]int) map[int]string {
	inv := map[int]string{}
	for k, v := range m {
		inv[v] = k
	}
	return inv
}
`
	if got := check(t, "internal/foo/foo.go", src); len(got) != 0 {
		t.Fatalf("order-free map loops flagged: %v", got)
	}
}

func TestMapOrderSeesLocalDeclarations(t *testing.T) {
	// make(map...), map literals and var declarations all mark the
	// identifier; printing in iteration order fires on any of them.
	src := `package foo
import "fmt"
func Dump() {
	seen := make(map[int]bool)
	for k := range seen {
		fmt.Println(k)
	}
	var idx map[string]int
	for k := range idx {
		fmt.Println(k)
	}
}
`
	got := check(t, "internal/foo/foo.go", src)
	var n int
	for _, r := range got {
		if r == "RL-MAPORDER" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("want 2 RL-MAPORDER findings (make + var decl), got %v", got)
	}
}

func TestMapOrderAllowlist(t *testing.T) {
	src := `package equiv
func (m *Model) closure(set map[string]int) {
	var queue []int
	for _, st := range set {
		queue = append(queue, st)
	}
	_ = queue
}
`
	if got := check(t, "internal/equiv/xval.go", src); len(got) != 0 {
		t.Fatalf("allowlisted closure seeding flagged: %v", got)
	}
	if got := check(t, "internal/equiv/other.go", src); len(got) != 1 || got[0] != "RL-MAPORDER" {
		t.Fatalf("allowlist must be path-specific, got %v", got)
	}
}

func TestHTTPCtxRuleFires(t *testing.T) {
	src := `package web
import (
	"context"
	"net/http"
)
func handle(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = ctx
}
`
	got := check(t, "internal/web/web.go", src)
	if len(got) != 1 || got[0] != "RL-HTTPCTX" {
		t.Fatalf("want [RL-HTTPCTX] for context.Background in a handler, got %v", got)
	}
}

func TestHTTPCtxCatchesTODOInHandlerClosure(t *testing.T) {
	src := `package web
import (
	"context"
	"net/http"
)
func handle(w http.ResponseWriter, r *http.Request) {
	go func() {
		ctx := context.TODO()
		_ = ctx
	}()
}
`
	got := check(t, "internal/web/web.go", src)
	if len(got) != 1 || got[0] != "RL-HTTPCTX" {
		t.Fatalf("want [RL-HTTPCTX] for context.TODO in a handler goroutine, got %v", got)
	}
}

func TestHTTPCtxAcceptsRequestContext(t *testing.T) {
	src := `package web
import (
	"context"
	"net/http"
)
func handle(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 0)
	defer cancel()
	_ = ctx
}
`
	if got := check(t, "internal/web/web.go", src); len(got) != 0 {
		t.Fatalf("r.Context() derivation flagged: %v", got)
	}
}

func TestHTTPCtxIgnoresNonHandlers(t *testing.T) {
	src := `package web
import "context"
func Serve() {
	ctx := context.Background()
	_ = ctx
}
`
	if got := check(t, "internal/web/web.go", src); len(got) != 0 {
		t.Fatalf("non-handler Background flagged: %v", got)
	}
}

func TestNetIDRuleFires(t *testing.T) {
	src := `package foo
import "desync/internal/netlist"
type index struct{ nets map[string]*netlist.Net }
func build(m *netlist.Module) map[string]*netlist.Inst {
	byName := map[string]*netlist.Inst{}
	return byName
}
`
	got := check(t, "internal/foo/foo.go", src)
	if len(got) != 3 {
		t.Fatalf("want 3 RL-NETID findings (field, result, literal), got %v", got)
	}
	for _, r := range got {
		if r != "RL-NETID" {
			t.Fatalf("want RL-NETID, got %v", got)
		}
	}
}

func TestNetIDRuleAllowsOtherMaps(t *testing.T) {
	src := `package foo
import "desync/internal/netlist"
func ok(m *netlist.Module) {
	byID := map[int]*netlist.Net{}
	names := map[string]string{}
	stats := map[string]*netlist.Module{}
	_, _, _ = byID, names, stats
}
`
	if got := check(t, "internal/foo/foo.go", src); len(got) != 0 {
		t.Fatalf("non-name-index maps flagged: %v", got)
	}
}

func TestNetIDRuleExemptsOwnerAndAllowlist(t *testing.T) {
	owner := `package netlist
type Module struct{ byName map[string]*Net }
`
	if got := check(t, "internal/netlist/design.go", owner); len(got) != 0 {
		t.Fatalf("owner package flagged: %v", got)
	}
	allowed := `package core
import "desync/internal/netlist"
func substituteOne() { conns := map[string]*netlist.Net{}; _ = conns }
`
	if got := check(t, "internal/core/ffsub.go", allowed); len(got) != 0 {
		t.Fatalf("allowlisted site flagged: %v", got)
	}
}

func TestWorkersRuleFires(t *testing.T) {
	src := `package foo
import rt "runtime"
type Config struct {
	Depth       int
	Parallelism int
}
func Workers() int { return rt.NumCPU() }
func Set(n int) { rt.GOMAXPROCS(n) }
`
	got := check(t, "cmd/foo/main.go", src)
	if len(got) != 3 || got[0] != "RL-WORKERS" || got[1] != "RL-WORKERS" || got[2] != "RL-WORKERS" {
		t.Fatalf("want 3 RL-WORKERS (field, NumCPU, GOMAXPROCS), got %v", got)
	}
}

func TestWorkersRuleAcceptsPar(t *testing.T) {
	owner := `package par
import "runtime"
func Workers() int { return runtime.GOMAXPROCS(0) }
`
	if got := check(t, "internal/par/par.go", owner); len(got) != 0 {
		t.Fatalf("internal/par flagged for owning the worker rule: %v", got)
	}
	other := `package foo
import "runtime"
type Config struct{ Workers int }
func Yield() { runtime.Gosched() }
`
	if got := check(t, "internal/foo/foo.go", other); len(got) != 0 {
		t.Fatalf("clean file flagged: %v", got)
	}
}

func TestWorkersRuleCoversPar(t *testing.T) {
	src := `package par
type Options struct{ Parallelism int }
`
	if got := check(t, "internal/par/opts.go", src); len(got) != 1 || got[0] != "RL-WORKERS" {
		t.Fatalf("want RL-WORKERS for a Parallelism field even in internal/par, got %v", got)
	}
}
