// Package fault is the one seeded fault-injection model behind every
// injector in the engine: the filesystem (internal/vfs.FaultFS), the network
// (internal/netchaos) and the out-of-core block store (ooc.FaultInjector).
//
// A Plan is an ordered list of Faults. Check decides one operation's fate:
// the first armed fault whose Op matches and whose Target is a substring of
// the operation's target fires, After skips the first N matching operations
// (the injection point), Rate fires only on a seeded fraction of them, and
// Once disarms a fault after it fires. A fault that fires may carry one seeded
// draw — a torn-write length, a flipped bit, a rename coin — taken from the
// same RNG as the Rate coins. Every decision is made under one mutex from one
// xrand stream, so a given (seed, plan, sequence of operations) replays the
// same failures, whichever adapters share the plan.
//
// What a firing fault does to an operation is the adapter's business; Kind
// only names the effect.
package fault

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/xrand"
)

// Op classifies the operations a fault can match.
type Op uint8

const (
	// Read matches Conn.Read and block-store reads.
	Read Op = iota
	// Write matches File.Write/WriteAt and Conn.Write.
	Write
	// Sync matches File.Sync and FS.SyncDir.
	Sync
	// Rename matches FS.Rename.
	Rename
	// Create matches file creation (OpenFile with O_CREATE, CreateTemp).
	Create
	// Remove matches FS.Remove.
	Remove
	// Truncate matches File.Truncate.
	Truncate
	// Dial matches outbound connection attempts.
	Dial
	// Accept matches inbound connection establishment.
	Accept
)

var opNames = [...]string{"read", "write", "sync", "rename", "create", "remove", "truncate", "dial", "accept"}

// String names the op for error messages and spec parsing.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Kind names what a firing fault does to the matched operation.
type Kind uint8

const (
	// Fail fails the operation with the fault's Err, or the adapter's
	// default error when Err is nil (ENOSPC on a filesystem, a severed link
	// on a connection).
	Fail Kind = iota
	// Delay sleeps Fault.Delay, then lets the operation proceed.
	Delay
	// Stall blocks the operation until its deadline or context expires —
	// silent packet loss.
	Stall
	// Flip lets the operation proceed but flips the seeded bit of the
	// transferred bytes.
	Flip
	// Torn writes a seeded strict prefix of the buffer, then fails.
	Torn
	// Crash fails the operation and puts the adapter in its crashed state; a
	// seeded coin decides whether a rename landed first.
	Crash
)

var kindNames = [...]string{"fail", "delay", "stall", "flip", "torn", "crash"}

// String names the kind for error messages.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scripted failure.
type Fault struct {
	// Op selects which operation the fault matches.
	Op Op
	// Kind selects what happens when it fires.
	Kind Kind
	// Target, when non-empty, restricts the fault to operations whose target
	// (file path, peer address) contains it as a substring.
	Target string
	// After skips the first After matching operations.
	After int
	// Once disarms the fault after it fires; otherwise it keeps firing for
	// every further matching operation until Heal.
	Once bool
	// Rate, when positive, fires the fault on a seeded fraction of the
	// operations past After; zero fires on all of them.
	Rate float64
	// Delay is the injected latency of a Delay fault.
	Delay time.Duration
	// Err is the error a failing fault returns; nil means the adapter's
	// default.
	Err error

	matched int
	fired   bool
}

// Plan is a seeded, ordered set of armed faults, shared by every wrapper it
// is handed to. Safe for concurrent use.
type Plan struct {
	mu     sync.Mutex
	rng    *xrand.Rand
	faults []*Fault
	fired  int
}

// New returns a plan armed with faults whose Rate coins and draws come from
// seed.
func New(seed int64, faults ...Fault) *Plan {
	p := &Plan{rng: xrand.New(uint64(seed))}
	p.Inject(faults...)
	return p
}

// Inject arms additional faults behind the ones already armed.
func (p *Plan) Inject(faults ...Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range faults {
		p.faults = append(p.faults, &f)
	}
}

// Heal disarms every fault — the operator freed space, the cable was
// replugged.
func (p *Plan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = nil
}

// Fired reports how many times any fault has fired.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Check consults the plan for one operation op on target and returns the
// fault that fires, or nil when the operation proceeds untouched. For a Flip,
// Torn or Crash fault and n > 0 it also returns a seeded draw uniform in
// [0, n), else 0: the adapter passes the bit count of a transfer, the length
// of a write, or 2 for a rename's coin. The returned fault is the plan's own
// and must not be modified.
func (p *Plan) Check(op Op, target string, n int) (*Fault, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Op != op || (f.Once && f.fired) || !strings.Contains(target, f.Target) {
			continue
		}
		if f.matched < f.After {
			f.matched++
			continue
		}
		if f.Rate > 0 && p.rng.Float64() >= f.Rate {
			continue
		}
		f.fired = true
		p.fired++
		draw := 0
		if n > 0 && (f.Kind == Flip || f.Kind == Torn || f.Kind == Crash) {
			draw = p.rng.IntN(n)
		}
		return f, draw
	}
	return nil, 0
}
