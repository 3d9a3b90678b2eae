package ooc

import (
	"errors"
	"fmt"
	"time"

	"github.com/tea-graph/tea/internal/fault"
)

// ErrTransient classifies an I/O error as retryable: the same read may
// succeed if reissued (EINTR-style glitches, device hiccups, injected test
// faults). Both disk samplers retry reads whose errors match
// errors.Is(err, ErrTransient) with exponential backoff; everything else is
// treated as permanent and surfaces immediately.
var ErrTransient = errors.New("ooc: transient I/O fault")

// ErrInjected marks an error produced by a FaultInjector rather than the
// real device, so tests and operators can tell drills from genuine faults.
var ErrInjected = errors.New("ooc: injected fault")

// FaultInjector wraps a BlockStore and applies a fault.Plan's fault.Read
// faults to every ReadAt: the §4.1 out-of-core path assumes a perfect disk,
// and this wrapper is how deployments (and our tests) verify behavior on an
// imperfect one without special hardware. A Delay fault sleeps before the
// read, modelling a slow or contended device; every other kind fails the read
// before it touches the store with an error wrapping ErrInjected and the
// fault's Err — ErrTransient makes it retryable, nil permanent. Writes pass
// through untouched. Safe for concurrent use.
type FaultInjector struct {
	inner BlockStore
	plan  *fault.Plan
}

// NewFaultInjector wraps inner with plan.
func NewFaultInjector(inner BlockStore, plan *fault.Plan) *FaultInjector {
	return &FaultInjector{inner: inner, plan: plan}
}

// Injected reports how many faults the plan has fired so far.
func (f *FaultInjector) Injected() int64 { return int64(f.plan.Fired()) }

// ReadAt implements BlockStore, possibly failing or delaying the read.
func (f *FaultInjector) ReadAt(p []byte, off int64) error {
	if flt, _ := f.plan.Check(fault.Read, "", 0); flt != nil {
		if flt.Kind == fault.Delay {
			time.Sleep(flt.Delay)
		} else {
			mInjected.Inc()
			if flt.Err != nil {
				return fmt.Errorf("read %d bytes at %d: %w: %w", len(p), off, ErrInjected, flt.Err)
			}
			return fmt.Errorf("read %d bytes at %d: %w", len(p), off, ErrInjected)
		}
	}
	return f.inner.ReadAt(p, off)
}

// WriteAt implements BlockStore, delegating to the wrapped store.
func (f *FaultInjector) WriteAt(p []byte, off int64) error { return f.inner.WriteAt(p, off) }

// Append implements BlockStore, delegating to the wrapped store.
func (f *FaultInjector) Append(p []byte) (int64, error) { return f.inner.Append(p) }
