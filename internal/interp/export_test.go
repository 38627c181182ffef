package interp

// For the differential tests in package interp_test, which can import
// the workload suite: the tree-walking oracle and the CDT3 encoder.
var (
	RunTree = runTree
	Encode  = encode
)
