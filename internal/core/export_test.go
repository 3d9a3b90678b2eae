package core

// Exported for the external test package (ooc_test.go), which cannot live in
// package core because ooc imports core.
var RunBothKernels = runBothKernels
