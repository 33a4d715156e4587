package ctrlnet

import (
	"strconv"
	"strings"

	"desync/internal/handshake"
)

// This file is the single owner of the flow's "G<id>_" naming convention.
// Every name the control-network insertion creates — channel nets, controller
// gates, delay-element chains, rendezvous trees, completion networks,
// environment ports — is constructed and parsed here and nowhere else
// (repolint rule RL-CTRLNET pins the invariant). The names survive Verilog
// round trips, which is what lets Derive rebuild the IR from a re-read
// netlist with no in-memory flow state.

// Channel net suffixes, in the order the six-net channel is laid out:
// master request/ack in, master request out, slave request/ack in, slave
// request out.
var ChannelSuffixes = []string{"mri", "mai", "mro", "sri", "sai", "sro"}

// Controller gate names within one controller half, per
// handshake.AddController: the latch-enable gC, the request-out gC, the
// opened-bit, and the acknowledge AND.
const (
	GateG  = "g"
	GateRO = "ro"
	GateB  = "b"
	GateAI = "ai"
)

// Region parses the "G<id>_" prefix off a control-network name. It is the
// blessed accessor for the convention; handshake.ControlRegion is its
// implementation and must not be called from other packages.
func Region(name string) (int, bool) { return handshake.ControlRegion(name) }

// Name builds the canonical "G<id>_<suffix>" control-network name: channel
// nets (Name(g, "mri")), enable nets (Name(g, "gm")), rendezvous nets
// (Name(g, "reqjoin"), Name(g, "sao")), environment ports
// (Name(g, "env_ri")).
func Name(g int, suffix string) string { return "G" + strconv.Itoa(g) + "_" + suffix }

// CtrlPrefix returns the instance-name prefix of region g's master or slave
// controller ("G<g>_Mctrl" / "G<g>_Sctrl").
func CtrlPrefix(g int, master bool) string {
	if master {
		return Name(g, "Mctrl")
	}
	return Name(g, "Sctrl")
}

// CtrlGate returns the full instance name of one controller gate, e.g.
// CtrlGate(3, true, GateG) == "G3_Mctrl/g".
func CtrlGate(g int, master bool, gate string) string {
	return CtrlPrefix(g, master) + "/" + gate
}

// DelayPrefix returns region g's matched request delay-element instance
// prefix (without the trailing slash).
func DelayPrefix(g int) string { return Name(g, "delem") }

// MSDelayPrefix returns region g's master→slave delay-element prefix.
func MSDelayPrefix(g int) string { return Name(g, "deMS") }

// ChainStage returns the i-th AND stage (1-based) of a delay-element chain,
// e.g. ChainStage(DelayPrefix(3), 1) == "G3_delem/a1".
func ChainStage(prefix string, i int) string { return prefix + "/a" + strconv.Itoa(i) }

// CTreePrefix returns region g's request or acknowledge C-Muller rendezvous
// tree instance prefix.
func CTreePrefix(g int, req bool) string {
	if req {
		return Name(g, "reqC")
	}
	return Name(g, "ackC")
}

// CdetPrefix returns region g's dual-rail completion-network prefix.
func CdetPrefix(g int) string { return Name(g, "cdet") }

// Reset is a converted design's reset contract, recorded by each backend's
// Generate: Port holds the generated network in reset while high (active
// high under every backend) for at least Width ns from time zero.
type Reset struct {
	Port  string
	Width float64
}

// DesyncReset is the desync backend's contract, held past the 1 ns datapath reset.
var DesyncReset = Reset{Port: "rst_desync", Width: 2}

// Environment handshake port names for boundary regions (§4.8): a region
// with no predecessors receives requests on env_ri and publishes its
// acknowledge on env_ai; a region with no successors receives acknowledges
// on env_ao and publishes its request on env_ro.
func EnvRequestPort(g int) string { return Name(g, "env_ri") }
func EnvReqAckPort(g int) string  { return Name(g, "env_ai") }
func EnvAckPort(g int) string     { return Name(g, "env_ao") }
func EnvReadyPort(g int) string   { return Name(g, "env_ro") }

// IsEnvRequestNet classifies a port-driven net as a request input of region
// g: the flow's exact env_ri name, or (for mutated/foreign netlists that
// keep the suffix) any _env_ri-suffixed name.
func IsEnvRequestNet(name string, g int) bool {
	return name == EnvRequestPort(g) || strings.HasSuffix(name, "_env_ri")
}

// IsDelayInstName reports whether an instance name places it inside a
// matched or master→slave delay-element chain.
func IsDelayInstName(name string) bool {
	return strings.Contains(name, "_delem/") || strings.Contains(name, "_deMS/")
}

// Two-phase clock-generator names (the twophase backend). The generator is
// region-independent, so its gates live under the fixed TPGenPrefix; only
// the per-region phase-distribution buffers carry the "G<id>_" prefix. The
// names follow the same round-trip discipline as the handshake network:
// twophase.Derive rebuilds its IR from a re-read netlist using them alone.
const (
	// TPGenPrefix roots every generator-owned instance and net name.
	TPGenPrefix = "TPgen"
	// TPSrcName is the ring-oscillator NOR: A = rst_2phase, B = the ring
	// feedback, Z = the raw oscillation.
	TPSrcName = "TPgen/src"
	// TPInvName inverts the raw oscillation for the phase splitter.
	TPInvName = "TPgen/inv"
	// TPPhase1Name / TPPhase2Name are the cross-coupled splitter NORs whose
	// Z pins are the phi1 / phi2 phase roots.
	TPPhase1Name = "TPgen/p1"
	TPPhase2Name = "TPgen/p2"
	// TPRingPrefix is the symmetric buffer chain setting the half-period.
	TPRingPrefix = "TPgen_ring"
	// TPNov1Prefix / TPNov2Prefix are the non-overlap feedback chains from
	// phi1 into the p2 NOR and from phi2 into the p1 NOR.
	TPNov1Prefix = "TPgen_nov1"
	TPNov2Prefix = "TPgen_nov2"
)

// TPDistName returns region g's phase-distribution buffer name: the master
// (phi1) or slave (phi2) enable driver.
func TPDistName(g int, master bool) string {
	if master {
		return Name(g, "tpm")
	}
	return Name(g, "tps")
}

// IsTPGenName reports whether an instance or net name belongs to the
// two-phase generator core (not the per-region distribution, which the
// "G<id>_" convention already classifies).
func IsTPGenName(name string) bool {
	return name == TPGenPrefix ||
		strings.HasPrefix(name, TPGenPrefix+"/") ||
		strings.HasPrefix(name, TPGenPrefix+"_")
}
