# Build and verification entry points. `make check` is the CI gate:
# vet, the static lint gate, the formal equivalence gate over both case
# studies, the full test suite under the race detector, vet and tests of
# the benchmark module, and the smoke guards (any escaped fault or
# state-count drift fails the build).

GO ?= go

.PHONY: all build test check vet lint equiv fuzz bench faults sweep serve scale

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Compiler-level static analysis, runnable on its own, plus the formatting
# gate: any tracked .go file the selected toolchain's gofmt would rewrite
# fails the target.
vet:
	$(GO) vet ./...
	@files="$$(git ls-files '*.go')" && \
		unformatted="$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files)" && \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Static verification: repolint enforces the repo's own coding conventions,
# drlint verifies both example designs before and (via the flow's built-in
# gates) after desynchronization, the mga marked-graph engine issues
# its polynomial-time liveness/safety/period verdicts on all three case
# studies (drequiv -static), and a two-phase DLX conversion exercises the
# alternate backend end to end (its TP-* lint gate runs inside the tool).
lint:
	$(GO) run ./cmd/repolint
	$(GO) run ./cmd/drlint -gen dlx
	$(GO) run ./cmd/drlint -gen arm
	$(GO) run ./cmd/drequiv -gen dlx -static
	$(GO) run ./cmd/drequiv -gen fir -static
	$(GO) run ./cmd/drdesync -gen dlx -backend twophase \
		-out /tmp/drdesync-tp-smoke.v -sdc /tmp/drdesync-tp-smoke.sdc
	rm -f /tmp/drdesync-tp-smoke.v /tmp/drdesync-tp-smoke.sdc

# Formal verification: model-check deadlock-freedom, phase safety and flow
# equivalence of both case studies' control networks, cross-validated
# against one randomized simulator trace each.
equiv:
	$(GO) run ./cmd/drequiv -gen dlx -xval 1
	$(GO) run ./cmd/drequiv -gen arm -xval 1

check: vet lint equiv sweep serve scale
	# Targeted race pass first: the parallel engine, the fault fan-out, the
	# sweep's ordered fold and journal, the ctrlnet derivation cache and the
	# equiv model built on it are the shared-state hot spots; fail fast on
	# them before the full-suite race run below.
	$(GO) test -race ./internal/par/ ./internal/faults/ ./internal/sweep/ ./internal/ctrlnet/ ./internal/equiv/
	$(GO) test -race -run 'Parallel|Cancellation' ./internal/sta/ ./internal/core/
	$(GO) test -race ./...
	# perfbench is its own Go module, so the root vet and test never
	# compile it: check it here, or a change to an API it imports
	# surfaces only at the next benchmark run.
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run XXX -bench 'BenchmarkFaultCampaignSmoke|BenchmarkCampaignParallelDLX|BenchmarkSweepSmokeDLX|BenchmarkLintClean|BenchmarkCheckMidFlow|BenchmarkMGAStaticDLX' -benchtime 1x . ./internal/lint/
	$(GO) test -run XXX -bench 'BenchmarkEquivDLX$$|BenchmarkEquivParallelDLX' -benchtime 1x ./internal/equiv/
	$(GO) test -run XXX -bench 'BenchmarkServeCachedSubmit' -benchtime 1x ./internal/flowserv/
	$(GO) test -run XXX -bench 'BenchmarkNetlistDerive100k' -benchtime 1x ./internal/expt/

# Short fuzz passes over the three text front ends and the sweep's
# checkpoint-journal parser; corpora are committed under
# internal/{verilog,liberty,sdc,sweep}/testdata/fuzz.
fuzz:
	$(GO) test ./internal/verilog/ -fuzz FuzzRead -fuzztime 20s
	$(GO) test ./internal/liberty/ -fuzz FuzzParse -fuzztime 20s
	$(GO) test ./internal/sdc/ -fuzz FuzzParse -fuzztime 20s
	$(GO) test ./internal/sweep/ -fuzz FuzzReadJournal -fuzztime 20s

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

faults:
	$(GO) run ./cmd/experiments -faults

# Job-server smoke: start an in-process drserve on an ephemeral port,
# submit the DLX over real HTTP, poll it to completion, resubmit and
# verify the cache hit is instant and byte-identical, then drain. This is
# the flow-as-a-service path `make check` exercises end to end.
serve:
	$(GO) run ./cmd/drserve -smoke

# Million-gate-core smoke: generate a 100k-instance pipeline and push it
# through the whole representation surface — Verilog export, re-import,
# ContentHash, Validate, the desynchronization flow and a fresh control
# derivation. On the SoA core the row takes a few seconds; the generous
# bound only trips if some stage regresses to its old quadratic shape.
scale:
	timeout 300 $(GO) run ./cmd/experiments -scale 100000

# Robustness-surface smoke: a small corner x chip x fault sweep through the
# streaming engine, checkpointed and resumed, so `make check` exercises the
# drsweep path end to end (journal create, SIGTERM-safe fold, resume
# replay). The surface must be flat — any escape fails the run via the
# sweep smoke benchmark above; this target checks the CLI plumbing.
sweep:
	rm -f /tmp/drsweep-smoke.journal
	$(GO) run ./cmd/drsweep -corners 2 -chips 2 -per-region 1 -quiet \
		-checkpoint /tmp/drsweep-smoke.journal
	$(GO) run ./cmd/drsweep -corners 2 -chips 2 -per-region 1 -quiet \
		-checkpoint /tmp/drsweep-smoke.journal -resume
	rm -f /tmp/drsweep-smoke.journal
