package core

import "testing"

// Exported for the external test package (ooc_test.go), which cannot live in
// package core because ooc imports core.
var RunBothKernels = runBothKernels

// RunBothKernelsRestart is runBothKernels over walks with restart rate alpha.
func RunBothKernelsRestart(t *testing.T, label string, eng *Engine, cfg WalkConfig, alpha float64) {
	t.Helper()
	cfg.restart = alpha
	runBothKernels(t, label, eng, cfg)
}
