package netlist

// Validate's two deciders, for the external tests that hold the
// allocation-free scan to the diagnostic pass.
var (
	CleanScan    = (*Module).cleanScan
	ValidateFull = (*Module).validateFull
)
