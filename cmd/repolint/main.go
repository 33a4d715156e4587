// Command repolint enforces repository-level coding conventions that plain
// `go vet` cannot express. It parses every non-test Go file under internal/
// and cmd/ (no type checking, stdlib go/ast only) and applies the rules
// below:
//
//	RL-PANIC    panic() is reserved for programmer-error guards in the small
//	            audited set of constructor/builder helpers below. Any panic in
//	            other non-test internal code must become an error return.
//	RL-RECOVER  recover() has exactly three audited jobs: the sweep's
//	            scenario quarantine (internal/sweep runQuarantined), the
//	            design builders' construction-panic translation
//	            (internal/designs recoverBuildErr), and the cmd main
//	            top-level guards. Anywhere else, a recover hides a bug; let
//	            it crash in tests and quarantine it at the audited boundary
//	            in production paths.
//	RL-STAGE    Every flowErr(...) call in internal/core must name its stage
//	            with a Stage* constant (or propagate an enclosing `stage`
//	            parameter), so FlowError.Stage is always machine-matchable.
//	RL-FLOW     In the flow driver (internal/core/flow.go, the shared stage
//	            skeleton), functions that return an error must return nil, a
//	            propagated error variable, or a flowErr(...) call — never a
//	            bare fmt.Errorf/errors.New. This is what guarantees
//	            core.StageOf works on every failure that escapes Convert.
//	RL-BACKEND  Staged flow errors are minted by the shared skeleton only:
//	            outside internal/core no file may build a core.FlowError
//	            composite literal (backends return plain errors; the skeleton
//	            wraps them with the stage it was running). And the backend
//	            registry stays inverted: internal/core must not import a
//	            backend package (backends import core and register themselves
//	            via RegisterBackend), and backend packages must not import
//	            each other.
//	RL-CTRLNET  The G<id>_ control-net naming convention has one owner:
//	            internal/ctrlnet. Outside it (and internal/handshake, which
//	            defines the instance-name grammar ctrlnet wraps), no file may
//	            build or parse those names by hand — neither "G%d_" format
//	            strings nor direct handshake.ControlRegion calls. Go through
//	            ctrlnet.Name/CtrlGate/Region instead, so a naming change stays
//	            a one-package change.
//	RL-GATES    The verified flow's gate sequence has one owner:
//	            internal/vflow. Its front ends (cmd/drdesync and
//	            internal/flowserv) render the vflow.Outcome and must not
//	            import the gate engines — internal/mga, internal/equiv,
//	            internal/faults — outside tests, so a second copy of the
//	            gate sequence cannot grow back in either of them.
//	RL-OPTS     Exported functions and methods must not take more than four
//	            scalar configuration parameters (basic types: ints, floats,
//	            bools, strings). Past that, positional call sites stop being
//	            readable and every new knob is a breaking change; bundle the
//	            knobs into an options struct (the Options/Config pattern with
//	            documented zero values) instead.
//	RL-HTTPCTX  HTTP handlers — any function taking a *http.Request — must
//	            derive cancellation from the request via r.Context(), never
//	            mint a fresh root with context.Background()/context.TODO().
//	            A handler on a detached context keeps computing for clients
//	            that hung up and ignores server shutdown, which breaks the
//	            flow server's drain guarantee.
//	RL-NETID    Outside internal/netlist, no new map[string]*netlist.Net or
//	            map[string]*netlist.Inst: a string-keyed side table rebuilds
//	            a name index the module already maintains (Net/Inst lookups,
//	            dense NetID/InstID handles and the NetByID/InstByID tables)
//	            and puts per-record map hashing back on paths the SoA
//	            refactor took it off of. Small audited snapshots — e.g. one
//	            instance's pin bindings captured just before RemoveInst —
//	            live in the allowlist.
//	RL-MAPORDER Iterating a map with an order-dependent body (appending to a
//	            slice, printing, writing) leaks Go's randomized iteration
//	            order into output — the exact nondeterminism the flow's
//	            byte-identical-reports guarantee forbids. The canonical fix
//	            is collect-keys-then-sort; a loop immediately followed by a
//	            sort of what it collected is recognized and accepted. Sites
//	            where the order provably cannot escape are audited into the
//	            allowlist, never waved through silently. (Detection is
//	            syntactic: it sees maps declared or received in the same
//	            function, which is where the footgun lives.)
//	RL-WORKERS  The parallel kernels' worker count is one rule owned by
//	            internal/par (par.Workers: GOMAXPROCS), not an option. Outside
//	            internal/par no code reads runtime.GOMAXPROCS or
//	            runtime.NumCPU, and no struct anywhere declares a Parallelism
//	            field, so a per-call worker knob cannot grow back; bound the
//	            workers with the GOMAXPROCS environment variable instead.
//
// Exit status is 1 when any finding is produced, 2 on usage/parse errors.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// panicAllowlist keys are "slash-relative-path:function" for the audited
// panic sites. These are all constructor or builder helpers whose contract
// is "misuse is a bug in the caller": duplicate-name registration, malformed
// generator parameters, and Must* wrappers.
var panicAllowlist = map[string]bool{
	"internal/stdcells/stdcells.go:New":      true, // library construction from vetted tables
	"internal/designs/blocks.go:Gate":        true, // builder arity guard
	"internal/designs/blocks.go:tree":        true, // empty reduction guard
	"internal/designs/blocks.go:MuxBus":      true, // width mismatch guard
	"internal/designs/blocks.go:MuxTree":     true, // empty tree guard
	"internal/designs/blocks.go:Adder":       true, // width mismatch guard
	"internal/netlist/design.go:AddNet":      true, // duplicate-name registration
	"internal/netlist/design.go:addInst":     true, // duplicate-name registration
	"internal/netlist/design.go:MustConnect": true,
	"internal/netlist/storage.go:EndBulk":    true, // unmatched Begin/EndBulk is a caller bug
	"internal/netlist/cell.go:Add":           true, // duplicate-cell registration
	"internal/netlist/cell.go:MustCell":      true,
	"internal/stg/stg.go:Initial":            true, // malformed built-in STG spec
	"internal/logic/expr.go:MustParseExpr":   true,
	"internal/sweep/journal.go:mustJSON":     true, // Must* wrapper; plain-struct marshal cannot fail
}

// recoverAllowlist keys are "slash-relative-path:function" for the audited
// recover sites: the sweep's scenario quarantine, the design builders'
// panic-to-error translation, and the top-level guard each cmd main wraps
// around its whole run. Widening a quarantine boundary is a reviewed change
// to this table, never a drive-by defer.
var recoverAllowlist = map[string]bool{
	"internal/sweep/run.go:runQuarantined":       true, // scenario quarantine
	"internal/designs/blocks.go:recoverBuildErr": true, // builder panic -> Build* error
	"internal/flowserv/run.go:runGuarded":        true, // job-server flow quarantine
	"cmd/sta/main.go:main":                       true,
	"cmd/dlxgen/main.go:main":                    true,
	"cmd/drdesync/main.go:main":                  true,
	"cmd/experiments/main.go:main":               true,
	"cmd/libprep/main.go:main":                   true,
}

// optsAllowlist exempts audited functions from RL-OPTS. The only legitimate
// exemptions are positional by nature: the DLX assembler helpers mirror the
// ISA's field order (op, rd, rs1, rs2, imm), which is a fixed encoding, not
// a set of tunables.
var optsAllowlist = map[string]bool{
	"internal/designs/dlx.go:Encode": true,
	"internal/designs/model.go:I":    true,
}

// netidAllowlist exempts audited sites from RL-NETID, keyed like the other
// allowlists. An entry means the map was reviewed and is not a module-scale
// name index: all current entries snapshot per-flip-flop pin->net bindings
// immediately before the substitution detaches and removes the flip-flops.
var netidAllowlist = map[string]bool{
	"internal/core/ffsub.go:SubstituteFlipFlops": true, // FF pin snapshots pre-detach
	"internal/core/ffsub.go:substituteOne":       true, // consumes the snapshot
	"internal/dft/dft.go:InsertScan":             true, // FF pin snapshot pre-removal
}

// mapOrderAllowlist exempts audited map-range loops from RL-MAPORDER, keyed
// like the other allowlists. An entry means the iteration order was reviewed
// and cannot reach any output: the collected values are order-insensitive
// (set union, error joining where any witness suffices) or sorted beyond the
// checker's one-block horizon.
var mapOrderAllowlist = map[string]bool{
	// closure seeds its worklist from a marking set; the saturation is a
	// fixpoint, so the queue's initial order cannot change the result set.
	"internal/equiv/xval.go:closure": true,
}

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	n, err := run(root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stdout, "repolint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// run checks the tree rooted at root and writes findings to w, returning
// how many were produced.
func run(root string, w io.Writer) (int, error) {
	var files []string
	for _, sub := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	sort.Strings(files)

	var all []finding
	fset := token.NewFileSet()
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return 0, err
		}
		all = append(all, checkFile(fset, rel, f)...)
	}
	for _, fd := range all {
		fmt.Fprintf(w, "%s: %s: %s\n", fd.pos, fd.rule, fd.msg)
	}
	return len(all), nil
}

func checkFile(fset *token.FileSet, rel string, f *ast.File) []finding {
	var out []finding
	core := strings.HasPrefix(rel, "internal/core/")
	driver := rel == "internal/core/flow.go"

	// cmd/repolint is exempt: its finding messages name the forbidden pattern.
	if !strings.HasPrefix(rel, "internal/ctrlnet/") && !strings.HasPrefix(rel, "internal/handshake/") &&
		!strings.HasPrefix(rel, "cmd/repolint/") {
		out = append(out, checkCtrlnetOwnership(fset, f)...)
	}
	// internal/netlist owns the name indexes RL-NETID forbids rebuilding.
	if !strings.HasPrefix(rel, "internal/netlist/") && !strings.HasPrefix(rel, "cmd/repolint/") {
		out = append(out, checkNetIDMaps(fset, rel, f)...)
	}
	out = append(out, checkBackendBoundaries(fset, rel, f)...)
	out = append(out, checkWorkers(fset, rel, f)...)
	// RL-GATES: the verified flow's front ends import no gate engine.
	if strings.HasPrefix(rel, "cmd/drdesync/") || strings.HasPrefix(rel, "internal/flowserv/") {
		for _, imp := range f.Imports {
			switch path := strings.Trim(imp.Path.Value, `"`); path {
			case "desync/internal/mga", "desync/internal/equiv", "desync/internal/faults":
				out = append(out, finding{fset.Position(imp.Pos()), "RL-GATES",
					fmt.Sprintf("front ends render internal/vflow's outcome; importing %s forks the gate sequence — add the gate to vflow instead", path)})
			}
		}
	}

	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// RL-PANIC: any panic call outside the audited allowlist.
		key := rel + ":" + fn.Name.Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch {
				case id.Name == "panic" && !panicAllowlist[key]:
					out = append(out, finding{fset.Position(call.Pos()), "RL-PANIC",
						fmt.Sprintf("panic in %s is not on the audited allowlist; return an error instead", fn.Name.Name)})
				case id.Name == "recover" && !recoverAllowlist[key]:
					// RL-RECOVER: recover only at the audited quarantine and
					// cmd-boundary sites. The key is the top-level declaration,
					// so a recover inside a deferred closure is still pinned to
					// the function that defers it.
					out = append(out, finding{fset.Position(call.Pos()), "RL-RECOVER",
						fmt.Sprintf("recover in %s is not an audited quarantine boundary; let the panic propagate or move it behind an allowlisted boundary", fn.Name.Name)})
				}
			}
			return true
		})
		if core {
			out = append(out, checkStageArgs(fset, fn.Body)...)
		}
		if driver {
			out = append(out, checkFlowReturns(fset, fn.Type, fn.Body)...)
		}
		if !optsAllowlist[key] {
			out = append(out, checkScalarParams(fset, fn)...)
		}
		out = append(out, checkHTTPCtx(fset, fn)...)
		if !mapOrderAllowlist[key] {
			out = append(out, checkMapOrder(fset, fn)...)
		}
	}
	return out
}

// checkWorkers enforces RL-WORKERS: outside internal/par, no reference to
// runtime.GOMAXPROCS or runtime.NumCPU (through whatever name the file
// imports runtime under), and nowhere a struct field named Parallelism.
func checkWorkers(fset *token.FileSet, rel string, f *ast.File) []finding {
	runtimeName := ""
	if !strings.HasPrefix(rel, "internal/par/") {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "runtime" {
				continue
			}
			runtimeName = "runtime"
			if imp.Name != nil {
				runtimeName = imp.Name.Name
			}
		}
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && runtimeName != "" && pkg.Name == runtimeName &&
				(x.Sel.Name == "GOMAXPROCS" || x.Sel.Name == "NumCPU") {
				out = append(out, finding{fset.Position(x.Pos()), "RL-WORKERS",
					fmt.Sprintf("runtime.%s outside internal/par: the worker count is par.Workers(), set through the GOMAXPROCS environment variable", x.Sel.Name)})
			}
		case *ast.StructType:
			for _, fld := range x.Fields.List {
				for _, name := range fld.Names {
					if name.Name == "Parallelism" {
						out = append(out, finding{fset.Position(name.Pos()), "RL-WORKERS",
							"a Parallelism field makes the worker count a per-call option; the par primitives size their pools from GOMAXPROCS"})
					}
				}
			}
		}
		return true
	})
	return out
}

// flowErrorMintAllowlist exempts audited sites from RL-BACKEND's
// FlowError-mint check. The only legitimate exemption is the verified
// flow's post-export gate helper: StageStatic and StageEquiv run after
// Convert returns, so the skeleton cannot wrap them — internal/vflow mints
// their staged errors in one place to keep core.StageOf (and drdesync's
// `failed during the %s stage`) working for the whole run. Backend
// packages never qualify.
var flowErrorMintAllowlist = map[string]bool{
	"internal/vflow/gates.go:stageError": true,
}

// backendPackages lists every clocking-conversion backend package by import
// path. Adding a backend means adding its path here, which buys it both
// directions of the RL-BACKEND import check for free.
var backendPackages = []string{
	"desync/internal/twophase",
}

// checkBackendBoundaries enforces RL-BACKEND: the staged-error mint stays in
// the skeleton (no core.FlowError composite literal outside internal/core)
// and the backend registry stays inverted (internal/core imports no backend
// package; backend packages do not import each other).
func checkBackendBoundaries(fset *token.FileSet, rel string, f *ast.File) []finding {
	var out []finding
	inCore := strings.HasPrefix(rel, "internal/core/")
	ownPkg := ""
	for _, bp := range backendPackages {
		dir := strings.TrimPrefix(bp, "desync/") + "/"
		if strings.HasPrefix(rel, dir) {
			ownPkg = bp
		}
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		for _, bp := range backendPackages {
			if path != bp {
				continue
			}
			switch {
			case inCore:
				out = append(out, finding{fset.Position(imp.Pos()), "RL-BACKEND",
					fmt.Sprintf("internal/core must not import backend package %s; backends import core and register via RegisterBackend", bp)})
			case ownPkg != "" && bp != ownPkg:
				out = append(out, finding{fset.Position(imp.Pos()), "RL-BACKEND",
					fmt.Sprintf("backend package %s must not import fellow backend %s; shared vocabulary belongs in core, ctrlnet or handshake", ownPkg, bp)})
			}
		}
	}
	if inCore || strings.HasPrefix(rel, "cmd/repolint/") {
		return out
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || flowErrorMintAllowlist[rel+":"+fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := cl.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" && sel.Sel.Name == "FlowError" {
				out = append(out, finding{fset.Position(cl.Pos()), "RL-BACKEND",
					fmt.Sprintf("staged flow errors are minted by the core skeleton only; %s should return a plain error and let Convert wrap it with its stage", fn.Name.Name)})
			}
			return true
		})
	}
	return out
}

// checkNetIDMaps enforces RL-NETID: outside internal/netlist, a
// map[string]*netlist.Net or map[string]*netlist.Inst — as a type, a
// make() argument, a composite literal, a field or a parameter — rebuilds
// a name index the module already owns. Detection is syntactic over every
// MapType node; the allowlist key is the enclosing top-level declaration.
func checkNetIDMaps(fset *token.FileSet, rel string, f *ast.File) []finding {
	var out []finding
	for _, decl := range f.Decls {
		name := ""
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name = d.Name.Name
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					name = s.Name.Name
				case *ast.ValueSpec:
					if len(s.Names) > 0 {
						name = s.Names[0].Name
					}
				}
			}
		}
		if netidAllowlist[rel+":"+name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			k, ok := mt.Key.(*ast.Ident)
			if !ok || k.Name != "string" {
				return true
			}
			star, ok := mt.Value.(*ast.StarExpr)
			if !ok {
				return true
			}
			sel, ok := star.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "netlist" || (sel.Sel.Name != "Net" && sel.Sel.Name != "Inst") {
				return true
			}
			out = append(out, finding{fset.Position(mt.Pos()), "RL-NETID",
				fmt.Sprintf("map[string]*netlist.%s in %s rebuilds a name index the module owns; use Net/Inst lookups or dense NetID/InstID-indexed slices, or audit the site into netidAllowlist", sel.Sel.Name, name)})
			return true
		})
	}
	return out
}

// mapIdents collects the identifiers the function visibly binds to map
// values: map-typed parameters, receivers, := / = assignments from make(map)
// or map composite literals, and var declarations of map type. Purely
// syntactic — a map arriving through a selector or a function result is
// invisible, which keeps the rule free of false positives at the cost of
// recall.
func mapIdents(fn *ast.FuncDecl) map[string]bool {
	maps := map[string]bool{}
	bind := func(names []*ast.Ident, typ ast.Expr) {
		if _, ok := typ.(*ast.MapType); !ok {
			return
		}
		for _, id := range names {
			maps[id.Name] = true
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			bind(f.Names, f.Type)
		}
	}
	isMapExpr := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CompositeLit:
			_, ok := e.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
				_, ok := e.Args[0].(*ast.MapType)
				return ok
			}
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if isMapExpr(n.Rhs[i]) {
					maps[id.Name] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if vs.Type != nil {
					bind(vs.Names, vs.Type)
				}
				for i, v := range vs.Values {
					if i < len(vs.Names) && isMapExpr(v) {
						maps[vs.Names[i].Name] = true
					}
				}
			}
		}
		return true
	})
	return maps
}

// orderDependent reports whether a range body leaks iteration order:
// appending to a slice, printing, or writing all emit elements in the order
// visited. Accumulation into maps, sums, maxima and deletes do not.
func orderDependent(body *ast.BlockStmt) bool {
	dep := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				dep = true
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
				strings.HasPrefix(name, "Write") {
				dep = true
			}
		}
		return !dep
	})
	return dep
}

// sortsAfter reports whether any statement in stmts calls into sort or
// slices — the collect-then-sort idiom that neutralizes map iteration
// order before it can reach output.
func sortsAfter(stmts []ast.Stmt) bool {
	sorted := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}

// checkMapOrder enforces RL-MAPORDER: a range over a visibly map-typed
// value whose body is order-dependent must be followed (in the same
// statement list) by a sort, or be on the audited allowlist.
func checkMapOrder(fset *token.FileSet, fn *ast.FuncDecl) []finding {
	maps := mapIdents(fn)
	if len(maps) == 0 {
		return nil
	}
	var out []finding
	scan := func(stmts []ast.Stmt) {
		for i, s := range stmts {
			rng, ok := s.(*ast.RangeStmt)
			if !ok {
				continue
			}
			id, ok := rng.X.(*ast.Ident)
			if !ok || !maps[id.Name] || !orderDependent(rng.Body) {
				continue
			}
			if sortsAfter(stmts[i+1:]) {
				continue
			}
			out = append(out, finding{fset.Position(rng.Pos()), "RL-MAPORDER",
				fmt.Sprintf("range over map %s has an order-dependent body; collect keys and sort, or audit the site into the allowlist", id.Name)})
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			scan(n.List)
		case *ast.CaseClause:
			scan(n.Body)
		case *ast.CommClause:
			scan(n.Body)
		}
		return true
	})
	return out
}

// scalarTypes are the basic types counted by RL-OPTS. Pointers, slices,
// maps, funcs and named struct/interface types are not configuration
// scalars and do not count.
var scalarTypes = map[string]bool{
	"bool": true, "string": true, "byte": true, "rune": true,
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true, "uintptr": true,
	"float32": true, "float64": true, "complex64": true, "complex128": true,
}

// checkScalarParams enforces RL-OPTS: an exported function or method taking
// more than four scalar basic-type parameters needs an options struct.
func checkScalarParams(fset *token.FileSet, fn *ast.FuncDecl) []finding {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return nil
	}
	scalars := 0
	for _, field := range fn.Type.Params.List {
		id, ok := field.Type.(*ast.Ident)
		if !ok || !scalarTypes[id.Name] {
			continue
		}
		// An unnamed field declares one parameter; a named field one per name.
		if n := len(field.Names); n > 0 {
			scalars += n
		} else {
			scalars++
		}
	}
	if scalars <= 4 {
		return nil
	}
	return []finding{{fset.Position(fn.Pos()), "RL-OPTS",
		fmt.Sprintf("%s takes %d scalar configuration parameters; past four, bundle them into an options struct with documented zero values", fn.Name.Name, scalars)}}
}

// checkCtrlnetOwnership enforces RL-CTRLNET on one file that is not part of
// the naming convention's owner packages: no "G%d_" format-string literal
// (hand-building control-net names) and no handshake.ControlRegion call
// (hand-parsing controller instance names). Both have ctrlnet equivalents.
func checkCtrlnetOwnership(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING && strings.Contains(n.Value, "G%d_") {
				out = append(out, finding{fset.Position(n.Pos()), "RL-CTRLNET",
					"control-net names are built by internal/ctrlnet (Name, CtrlGate, ...), not by G%d_ format strings"})
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "handshake" && sel.Sel.Name == "ControlRegion" {
					out = append(out, finding{fset.Position(n.Pos()), "RL-CTRLNET",
						"controller instance names are parsed by ctrlnet.Region, not handshake.ControlRegion"})
				}
			}
		}
		return true
	})
	return out
}

// checkHTTPCtx enforces RL-HTTPCTX: a function with a *http.Request
// parameter must not call context.Background() or context.TODO() anywhere
// in its body (function literals included — a goroutine spawned from a
// handler on a detached root has the same lifetime bug). The request's own
// context is the only correct cancellation root inside a handler.
func checkHTTPCtx(fset *token.FileSet, fn *ast.FuncDecl) []finding {
	if fn.Type.Params == nil {
		return nil
	}
	isHTTPRequest := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "http" && sel.Sel.Name == "Request"
	}
	handler := false
	for _, field := range fn.Type.Params.List {
		if isHTTPRequest(field.Type) {
			handler = true
			break
		}
	}
	if !handler {
		return nil
	}
	var out []finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			out = append(out, finding{fset.Position(call.Pos()), "RL-HTTPCTX",
				fmt.Sprintf("HTTP handler %s mints a detached context with context.%s; derive from r.Context() so client hangups and server drain cancel the work", fn.Name.Name, sel.Sel.Name)})
		}
		return true
	})
	return out
}

// checkStageArgs enforces RL-STAGE: the first argument of every flowErr call
// must be a Stage* constant, or an identifier named like the conventional
// `stage` parameter that forwards one.
func checkStageArgs(fset *token.FileSet, body ast.Node) []finding {
	var out []finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "flowErr" || len(call.Args) == 0 {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			if strings.HasPrefix(arg.Name, "Stage") || strings.HasPrefix(arg.Name, "stage") {
				return true
			}
		}
		out = append(out, finding{fset.Position(call.Pos()), "RL-STAGE",
			"flowErr stage argument must be a Stage* constant (or a forwarded stage parameter)"})
		return true
	})
	return out
}

// checkFlowReturns enforces RL-FLOW on one function (and any function
// literals it contains, each judged against its own signature): when the
// last result is an error, every return's final value must be nil, an
// identifier propagating an existing error, or a flowErr(...) call.
func checkFlowReturns(fset *token.FileSet, typ *ast.FuncType, body *ast.BlockStmt) []finding {
	var out []finding
	returnsError := false
	if typ.Results != nil && len(typ.Results.List) > 0 {
		last := typ.Results.List[len(typ.Results.List)-1]
		if id, ok := last.Type.(*ast.Ident); ok && id.Name == "error" {
			returnsError = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, checkFlowReturns(fset, n.Type, n.Body)...)
			return false
		case *ast.ReturnStmt:
			if !returnsError || len(n.Results) == 0 {
				return true
			}
			last := n.Results[len(n.Results)-1]
			switch e := last.(type) {
			case *ast.Ident:
				return true // nil, or a propagated (already wrapped) error
			case *ast.CallExpr:
				if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "flowErr" {
					return true
				}
			}
			out = append(out, finding{fset.Position(n.Pos()), "RL-FLOW",
				"flow driver error returns must be nil, a propagated error, or flowErr(...)"})
		}
		return true
	})
	return out
}
