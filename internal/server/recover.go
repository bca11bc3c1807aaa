// Panic isolation helpers for the server's own goroutines. The PR 9
// contract — a panic fails one piece of work, never the process — is
// enforced mechanically by fplint's fpgorecover analyzer: every goroutine
// literal in this package must begin with a defer of one of these helpers
// (or an inline recover). ServeHTTP has its own middleware for the request
// path; these cover shard attempts and background loops.
package server

import (
	"fmt"
	"runtime/debug"

	fp "fuzzyprophet"
)

// recoverToError converts a panic in scope into a *fp.PanicError assigned
// to *dst (unless *dst is already set), mirroring mc's helper of the same
// name. Use as: defer recoverToError(&err, "stage") — registered before
// any work, so the panic is caught no matter where in the goroutine it
// fires.
func recoverToError(dst *error, stage string) {
	if r := recover(); r != nil {
		perr := &fp.PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		if *dst == nil {
			*dst = perr
		}
	}
}

// recoverToLog is the boundary for background loops that have no error
// channel (session sweeping, snapshot persistence, capacity probing): the
// panic is counted, logged with its stack, and swallowed, so one bad sweep
// never takes the server down. m may be nil in tests.
func (s *Server) recoverToLog(stage string) {
	if r := recover(); r != nil {
		s.metrics.panics.Add(1)
		s.cfg.Log.Error("panic recovered", "stage", stage, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
	}
}
