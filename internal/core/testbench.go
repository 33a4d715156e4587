package core

import (
	"fmt"
	"strings"

	"desync/internal/netlist"
)

// WriteTestbench generates a behavioural Verilog testbench skeleton for a
// design. For synchronous designs it instantiates a clock generator; for
// desynchronized ones — per §4.8, "the only change needed is the
// replacement of the clock references by corresponding request/acknowledge
// signals" — it drives the desynchronization reset and handshakes any
// environment request/acknowledge ports the tool created for boundary
// regions. res may be nil for the synchronous version.
func WriteTestbench(d *netlist.Design, res *Result, clockPort string, period float64) string {
	m := d.Top
	var sb strings.Builder
	fmt.Fprintf(&sb, "// Generated testbench for %s\n", m.Name)
	fmt.Fprintf(&sb, "`timescale 1ns/1ps\n")
	fmt.Fprintf(&sb, "module tb_%s;\n", m.Name)

	var ins, outs []*netlist.Port
	for _, p := range m.Ports {
		switch p.Dir {
		case netlist.In:
			ins = append(ins, p)
		case netlist.Out:
			outs = append(outs, p)
		}
	}
	for _, p := range ins {
		fmt.Fprintf(&sb, "  reg %s;\n", tbName(p.Name))
	}
	for _, p := range outs {
		fmt.Fprintf(&sb, "  wire %s;\n", tbName(p.Name))
	}
	fmt.Fprintf(&sb, "\n  %s dut (", m.Name)
	for i, p := range m.Ports {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, ".%s(%s)", tbName(p.Name), tbName(p.Name))
	}
	sb.WriteString(");\n\n")

	desync := res != nil
	if !desync && clockPort != "" {
		fmt.Fprintf(&sb, "  // Clock generator\n")
		fmt.Fprintf(&sb, "  initial %s = 0;\n", tbName(clockPort))
		fmt.Fprintf(&sb, "  always #%.4f %s = ~%s;\n\n", period/2, tbName(clockPort), tbName(clockPort))
	}
	fmt.Fprintf(&sb, "  initial begin\n")
	for _, p := range ins {
		if v := 0; p.Name != clockPort {
			if desync && p.Name == res.Reset.Port {
				v = 1 // every other input starts low
			}
			fmt.Fprintf(&sb, "    %s = %d;\n", tbName(p.Name), v)
		}
	}
	fmt.Fprintf(&sb, "    #%.4f;\n", period)
	for _, p := range ins {
		switch {
		case desync && p.Name == res.Reset.Port:
			fmt.Fprintf(&sb, "    %s = 0; // release the controller network\n", tbName(p.Name))
		case strings.Contains(strings.ToLower(p.Name), "rstn"):
			fmt.Fprintf(&sb, "    %s = 1;\n", tbName(p.Name))
		}
	}
	fmt.Fprintf(&sb, "    #%.4f $finish;\n", period*200)
	fmt.Fprintf(&sb, "  end\n")

	if desync {
		// Environment handshakes replace the clock references (§4.8).
		for _, port := range res.Insert.EnvRequests {
			fmt.Fprintf(&sb, "\n  // Environment request for a boundary region: assert when input\n")
			fmt.Fprintf(&sb, "  // data is valid, withdraw after the acknowledge.\n")
			fmt.Fprintf(&sb, "  initial begin %s = 0; forever begin #%.4f %s = 1; #%.4f %s = 0; end end\n",
				tbName(port), period, tbName(port), period, tbName(port))
		}
		for _, port := range res.Insert.EnvAcks {
			fmt.Fprintf(&sb, "\n  // Environment acknowledge for a boundary region.\n")
			fmt.Fprintf(&sb, "  initial begin %s = 0; forever begin #%.4f %s = 1; #%.4f %s = 0; end end\n",
				tbName(port), period/2, tbName(port), period/2, tbName(port))
		}
	}
	fmt.Fprintf(&sb, "endmodule\n")
	return sb.String()
}

// tbName flattens bus-bit port names for the behavioural testbench.
func tbName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '[' || c == ']' || c == '/' || c == '.' {
			out = append(out, '_')
		} else {
			out = append(out, c)
		}
	}
	return string(out)
}
