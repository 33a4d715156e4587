package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"desync/internal/core"
	"desync/internal/flowserv"
	"desync/internal/vflow"
)

// The CLI-vs-server parity suite: the same input through drdesync's run()
// and through a live job server must reach the same verdict, fire the same
// fallbacks and export byte-identical netlist and constraints. Both front
// ends render one vflow.Run, so any divergence is a front end re-deciding
// something the shared flow owns.
func TestCLIServerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity suite runs every case through both front ends")
	}
	type input struct {
		name, gen, src, lib string
		period, margin      float64
		mode                core.Mode
	}
	inputs := []input{
		{name: "dlx", gen: "dlx", lib: "HS", period: 4.65},
		{name: "arm", gen: "arm", lib: "LL", period: 12},
		{name: "fir", gen: "fir", lib: "HS", period: 6},
		{name: "pipeline", gen: "pipeline:depth=4,width=8,regions=6", lib: "HS", period: 2},
		{name: "no-region", src: inputRegsOnly, lib: "HS", period: 1},
	}
	type parityCase struct {
		input
		backend string
	}
	var cases []parityCase
	for _, in := range inputs {
		for _, be := range []string{core.BackendDesync, core.BackendTwoPhase} {
			cases = append(cases, parityCase{in, be})
		}
	}
	cases = append(cases,
		parityCase{input{name: "dlx-margin", gen: "dlx", lib: "HS", period: 4.65, margin: 0.05}, core.BackendDesync},
		parityCase{input{name: "dlx-cdet", gen: "dlx", lib: "HS", period: 4.65, mode: core.ModeCompletion}, core.BackendDesync},
		parityCase{input{name: "fir-cdet", gen: "fir", lib: "HS", period: 6, mode: core.ModeCompletion}, core.BackendDesync})

	base := startServer(t)
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.backend, func(t *testing.T) {
			dir := t.TempDir()
			o := runOpts{
				gen: tc.gen, libVariant: tc.lib,
				out: filepath.Join(dir, "netlist.v"), sdcOut: filepath.Join(dir, "constraints.sdc"),
				Options: vflow.Options{Flow: core.Options{Backend: tc.backend, Mode: tc.mode, Period: tc.period, Margin: tc.margin}},
			}
			if tc.src != "" {
				o.in = filepath.Join(dir, "in.v")
				if err := os.WriteFile(o.in, []byte(tc.src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, cliErr := run(context.Background(), o, io.Discard, io.Discard)

			req := flowserv.JobRequest{Gen: tc.gen, Verilog: tc.src, Lib: tc.lib, Options: flowserv.FlowOptions{
				Backend: tc.backend, Mode: string(tc.mode), Period: tc.period, Margin: tc.margin,
			}}
			st, evs, arts := runJob(t, base, req)

			if (cliErr == nil) != (st.State == flowserv.StateDone) {
				t.Fatalf("verdicts differ: drdesync err %v, server %s %q", cliErr, st.State, st.Error)
			}
			if cliErr != nil {
				t.Fatalf("both front ends failed: %v", cliErr)
			}

			// Gate verdicts: the server streams each decided verdict as a
			// gate (ran) or note (skipped, downgraded) event; the last one
			// per gate must match the CLI's outcome.
			want, got := map[string]flowserv.Event{}, map[string]flowserv.Event{}
			for _, v := range out.Verdicts {
				kind := "note"
				if v.Status == vflow.Ran {
					kind = "gate"
				}
				want[v.Step] = flowserv.Event{Kind: kind, Stage: v.Step, Msg: v.Reason}
			}
			var fallbackNotes []string
			for _, ev := range evs {
				switch ev.Stage {
				case vflow.GatePreImport, vflow.GateLint, vflow.GateStatic, vflow.GateEquiv, vflow.GateFaults:
					ev.Seq = 0
					got[ev.Stage] = ev
				case core.StageGroup, core.StageSize:
					if ev.Kind == "note" {
						fallbackNotes = append(fallbackNotes, ev.Msg)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("gate verdicts differ:\n server %v\n cli    %v", got, want)
			}

			// Fallbacks: result.json's degraded record and one note event
			// each, in the order the CLI fired them.
			var sum struct {
				Degraded []vflow.Verdict `json:"degraded"`
			}
			if err := json.Unmarshal(arts[flowserv.ArtifactResult], &sum); err != nil {
				t.Fatal(err)
			}
			var cliNotes []string
			for _, f := range out.Degraded {
				cliNotes = append(cliNotes, f.Reason)
			}
			if !reflect.DeepEqual(sum.Degraded, out.Degraded) || !reflect.DeepEqual(fallbackNotes, cliNotes) {
				t.Errorf("fallbacks differ:\n server %+v (notes %q)\n cli    %+v", sum.Degraded, fallbackNotes, out.Degraded)
			}
			if tc.name == "no-region" || tc.name == "dlx-margin" {
				if len(out.Degraded) == 0 {
					t.Errorf("%s fired no fallback", tc.name)
				}
			}
			if v := out.Verdict(vflow.GateStatic); tc.mode == core.ModeCompletion && v.Status != vflow.Skipped {
				t.Errorf("completion-detection static verdict %+v, want skipped", v)
			}

			for _, name := range []string{flowserv.ArtifactNetlist, flowserv.ArtifactConstraints} {
				cli, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cli, arts[name]) {
					t.Errorf("%s differs between drdesync (%d bytes) and the server (%d bytes)", name, len(cli), len(arts[name]))
				}
			}
		})
	}
}

// startServer runs a job server on a loopback listener until the test ends
// and returns its base URL.
func startServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- flowserv.New(flowserv.Config{Workers: 1}).Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// runJob submits req, waits for the job to finish and returns its status,
// event stream and (for a finished job) netlist, constraints and summary.
func runJob(t *testing.T, base string, req flowserv.JobRequest) (flowserv.Status, []flowserv.Event, map[string][]byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st flowserv.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.ID == "" {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/jobs/" + st.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		return b
	}
	// The event stream ends once the job is terminal.
	var evs []flowserv.Event
	dec := json.NewDecoder(bytes.NewReader(get("/events")))
	for dec.More() {
		var ev flowserv.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if err := json.Unmarshal(get(""), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == flowserv.StateDone || st.State == flowserv.StateFailed || st.State == flowserv.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
	}
	arts := map[string][]byte{}
	if st.State == flowserv.StateDone {
		for _, name := range []string{flowserv.ArtifactNetlist, flowserv.ArtifactConstraints, flowserv.ArtifactResult} {
			arts[name] = get("/artifacts/" + name)
		}
	}
	return st, evs, arts
}
