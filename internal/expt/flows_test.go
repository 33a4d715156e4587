package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"desync/internal/core"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// TestRunFlowDigests pins the exported netlist and SDC of every conversion
// the tables, figures and ablations make, with the digests the four
// per-design runners this flow replaced produced, and checks that each
// conversion passed every gate that applies to it and fired no fallback.
func TestRunFlowDigests(t *testing.T) {
	const pipe = "pipeline:depth=8,width=16,regions=8"
	cases := []struct {
		name, spec   string
		cfg          FlowConfig
		netlist, sdc string
	}{
		{"dlx", "dlx", FlowConfig{},
			"3ca4b035329e69f4d60a3d6a09f01a715a560f73a787efc394f6026adcc1f53e",
			"a0f961e005df768d9ba34b93bc00a36087dca6c0ffa32dc87dbce0c7b0987d7a"},
		{"dlx-mux", "dlx", FlowConfig{MuxTaps: true},
			"1f31e23a3fd3d05dbddacd592d4e3233f9efa36ab84ae5bfabd7e87f63d17b0d",
			"660ea565db4d0a25a261578fde64ef06e35d621918bb541193237935f3038728"},
		{"dlx-single", "dlx", FlowConfig{SingleRegion: true},
			"66ce44ed14f83600b058b70a52fae990e8c85f197a001d32bc98ac13f6d0cfc1",
			"51c86b18e41cb785e015c80dfedaf6a2e0f7a58979b0b5c8edff8897ed5da245"},
		{"dlx-twophase", "dlx", FlowConfig{Backend: core.BackendTwoPhase},
			"285fb2d7e8adea463bade4854690107c7c0d6452c812ed2ded991cbdc69c212e",
			"2e77c04590efeb5d2a1138f32f425e32b027d973d5e6db9bf657cbc4d25f9e00"},
		{"dlx-cdet", "dlx", FlowConfig{Mode: core.ModeCompletion},
			"4ecec67d6501f181df01f6bb318246449bc74fe94c408b2475666cb4d8649df2",
			"3a9d5ee942902e93ce197bf6ccf7a2e70d991534825550e010f0a72a265cc29e"},
		{"arm", "arm", FlowConfig{},
			"6971b67bc7a9b3959c62997b4c6f431b55ec6f2619445cc34c17aa3291fd863b",
			"a395ae3d56b35367de359d58810c3af3f8981f84b5da8d392db6262fe6338534"},
		{"fir", "fir", FlowConfig{},
			"8fd2a268e337bd9fced7b603b1ab74a60d9c2a943177a18e9cc1ceee6fa55a6d",
			"8207ff204a28f074ac462435cad5f19f2d82c8df4bc655ea4b7f8c2f11a8d602"},
		{"riscv", "riscv", FlowConfig{},
			"f277222c60585ad69f4e420f8466a1afb3a2dfb53ef36f5d39783cc8f97f1118",
			"b23dd607b5d20b7e31da14ee1f37a2a1830e3ddc9fcd24e74479a925e93271fd"},
		{"riscv-twophase", "riscv", FlowConfig{Backend: core.BackendTwoPhase},
			"d76150a061571556775ef95d247689c85ca4b0ab48f2dd1c6bd015ee0be97a63",
			"f4f5024db60b44eaebff91b4b334210b30cb74b9745f89ce8126211f216eb233"},
		{"pipeline", pipe, FlowConfig{},
			"4be078b21e50526936941aac2bd281d3fde37ca84713cbb4aba732a22737f2d6",
			"c265db7340c88e6846344cb3db6c5e2326cdf6466291e4c63715d1170607d03a"},
		{"pipeline-twophase", pipe, FlowConfig{Backend: core.BackendTwoPhase},
			"cd4b7dd3bc4fa783faa6bfeae0f11653d561e24f9db24d5efe03071fd372d953",
			"922b38f99a703b60c3fc4925be0360ec7e8f7896979da604666eeee31eef8e60"},
	}
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := RunFlow(tc.spec, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(verilog.Write(f.Design)); got != tc.netlist {
				t.Errorf("netlist digest %s, want %s", got, tc.netlist)
			}
			if got := digest(f.Result.Constraints.Write()); got != tc.sdc {
				t.Errorf("SDC digest %s, want %s", got, tc.sdc)
			}
			// The marked-graph gates model matched-delay handshake
			// controllers; every other conversion skips them.
			static := vflow.Ran
			if tc.cfg.Backend == core.BackendTwoPhase || tc.cfg.Mode == core.ModeCompletion {
				static = vflow.Skipped
			}
			want := []vflow.Status{vflow.Ran, vflow.Ran, static}
			if len(f.Verdicts) != len(want) {
				t.Fatalf("verdicts %+v, want pre-import, lint and static", f.Verdicts)
			}
			for i, step := range []string{vflow.GatePreImport, vflow.GateLint, vflow.GateStatic} {
				if v := f.Verdicts[i]; v.Step != step || v.Status != want[i] {
					t.Errorf("verdict %d is %+v, want %s %s", i, v, step, want[i])
				}
			}
			if len(f.Degraded) != 0 {
				t.Errorf("fallbacks fired: %+v", f.Degraded)
			}
		})
	}
}
