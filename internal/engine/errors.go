package engine

import "fmt"

// RunError ties one failed run to its position in the declared plan.
type RunError struct {
	// Index is the run's declaration-order position.
	Index int
	// Err is the error the run returned.
	Err error
}

// Error implements error.
func (e *RunError) Error() string { return fmt.Sprintf("run %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// PlanError aggregates every failed run of a MapNamed plan, in declaration
// order — the same error value at any parallelism level, because the
// engine executes the whole plan rather than aborting at the first
// failure observed.
type PlanError struct {
	// Runs holds one entry per failed run, ordered by Index.
	Runs []*RunError
}

// Error implements error. It leads with the first failure by declaration
// order (the deterministic "first error" of the old contract) and counts
// the rest.
func (e *PlanError) Error() string {
	if len(e.Runs) == 1 {
		return e.Runs[0].Error()
	}
	return fmt.Sprintf("%s (and %d more failed)", e.Runs[0].Error(), len(e.Runs)-1)
}

// Unwrap exposes every failed run to errors.Is/As.
func (e *PlanError) Unwrap() []error {
	out := make([]error, len(e.Runs))
	for i, r := range e.Runs {
		out[i] = r
	}
	return out
}
