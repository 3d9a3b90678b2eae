// Package netchaos is the network adapter of internal/fault: it threads a
// fault.Plan through net.Conn / net.Listener / dial so the shard RPC layer
// can be exercised against the failures a real cluster network produces —
// refused dials, mid-stream resets, silent packet loss (stalls), latency
// spikes, asymmetric partitions, and corrupted bytes (which the wire CRC must
// catch).
//
// Faults match by fault.Op (Dial, Accept, Read, Write) and by peer address
// as their Target. What a firing fault does here:
//
//   - Fail closes the connection and fails the operation (dial refused,
//     read/write error) — a severed link or a reset.
//   - Delay sleeps Fault.Delay before letting the operation proceed; the
//     connection's deadline still applies to the real operation afterwards.
//   - Stall blocks the operation until the connection's deadline expires,
//     the connection is closed, or the dial's context ends — the failure mode
//     that distinguishes timeout handling from error handling.
//   - Flip performs the real read or write but flips one seeded bit of the
//     transferred bytes.
//
// Parse refuses any other kind or op pairing; a hand-built plan's Torn or
// Crash fault acts as Fail, and an accepted connection under any fault but
// Delay is closed as it arrives. A plan with no armed faults is transparent.
package netchaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/fault"
)

// ErrInjected is the base error of every netchaos-caused failure, so tests
// and log scrapers can tell injected faults from real ones.
var ErrInjected = errors.New("netchaos: injected fault")

// timeoutError satisfies net.Error with Timeout() == true — what a stalled
// operation surfaces once the deadline passes, matching the real kernel's
// behavior for lost packets.
type timeoutError struct{ op fault.Op }

func (e timeoutError) Error() string   { return fmt.Sprintf("netchaos: %s stalled past deadline", e.op) }
func (e timeoutError) Timeout() bool   { return true }
func (e timeoutError) Temporary() bool { return true }

// failure is the error a failing fault f returns for op toward peer.
func failure(f *fault.Fault, op fault.Op, peer string) error {
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	return fmt.Errorf("netchaos: injected %s %s toward %s: %w", f.Kind, op, peer, err)
}

// Partition returns the faults that sever all traffic toward peers whose
// address contains peer: dials are refused and reads/writes on existing
// connections fail and close them. after delays the cut by that many
// matching operations; Heal restores the link.
func Partition(peer string, after int) []fault.Fault {
	return []fault.Fault{
		{Op: fault.Dial, Target: peer, After: after},
		{Op: fault.Read, Target: peer, After: after},
		{Op: fault.Write, Target: peer, After: after},
	}
}

// Dial returns a dialer that dials through p: Dial faults decide each
// attempt's fate and the returned connection is wrapped so Read/Write faults
// apply for its lifetime. Use as wire.ClientConfig.Dialer.
func Dial(p *fault.Plan) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		if f, _ := p.Check(fault.Dial, addr, 0); f != nil {
			switch f.Kind {
			case fault.Delay:
				select {
				case <-time.After(f.Delay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			case fault.Stall:
				<-ctx.Done()
				return nil, fmt.Errorf("netchaos: injected stall dial toward %s: %w", addr, ctx.Err())
			default:
				return nil, failure(f, fault.Dial, addr)
			}
		}
		var d net.Dialer
		raw, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return Conn(p, raw, addr), nil
	}
}

// Conn wraps an established connection; peer is the address faults match
// against (defaults to the connection's remote address when empty).
func Conn(p *fault.Plan, c net.Conn, peer string) net.Conn {
	if peer == "" && c.RemoteAddr() != nil {
		peer = c.RemoteAddr().String()
	}
	return &chaosConn{Conn: c, plan: p, peer: peer, closed: make(chan struct{}), dlCh: make(chan struct{})}
}

// Listener wraps ln so accepted connections pass through p: Accept faults
// other than Delay close the connection as it arrives, and every surviving
// connection is wrapped for Read/Write faults. This is the server-loop half
// of the chaos threading (the client-pool half is Dial).
func Listener(p *fault.Plan, ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, plan: p}
}

type chaosListener struct {
	net.Listener
	plan *fault.Plan
}

func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		peer := ""
		if c.RemoteAddr() != nil {
			peer = c.RemoteAddr().String()
		}
		if f, _ := l.plan.Check(fault.Accept, peer, 0); f != nil {
			if f.Kind != fault.Delay {
				// The connection is torn down as it arrives; the dialer sees
				// an immediate EOF/reset on first use.
				c.Close()
				continue
			}
			time.Sleep(f.Delay)
		}
		return Conn(l.plan, c, peer), nil
	}
}

// chaosConn threads the plan through one connection. Deadlines are tracked
// locally (as well as delegated) so a stalled operation still honors them —
// the real conn never sees a stalled op, so its own deadline machinery can't
// fire for it.
type chaosConn struct {
	net.Conn
	plan *fault.Plan
	peer string

	mu        sync.Mutex
	readDL    time.Time
	writeDL   time.Time
	dlCh      chan struct{} // closed and replaced on every deadline update
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *chaosConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *chaosConn) SetDeadline(t time.Time) error {
	c.setDL(t, true, true)
	return c.Conn.SetDeadline(t)
}

func (c *chaosConn) SetReadDeadline(t time.Time) error {
	c.setDL(t, true, false)
	return c.Conn.SetReadDeadline(t)
}

func (c *chaosConn) SetWriteDeadline(t time.Time) error {
	c.setDL(t, false, true)
	return c.Conn.SetWriteDeadline(t)
}

func (c *chaosConn) setDL(t time.Time, read, write bool) {
	c.mu.Lock()
	if read {
		c.readDL = t
	}
	if write {
		c.writeDL = t
	}
	close(c.dlCh) // wake stalled ops so they re-read the deadline
	c.dlCh = make(chan struct{})
	c.mu.Unlock()
}

// stall blocks until the relevant deadline passes or the conn closes,
// re-checking whenever the deadline is updated (the wire client poisons the
// deadline to interrupt in-flight exchanges on context cancellation).
func (c *chaosConn) stall(op fault.Op) error {
	for {
		c.mu.Lock()
		dl := c.readDL
		if op == fault.Write {
			dl = c.writeDL
		}
		ch := c.dlCh
		c.mu.Unlock()
		var timer <-chan time.Time
		if !dl.IsZero() {
			wait := time.Until(dl)
			if wait <= 0 {
				return timeoutError{op: op}
			}
			t := time.NewTimer(wait)
			defer t.Stop()
			timer = t.C
		}
		select {
		case <-c.closed:
			return net.ErrClosed
		case <-timer:
			return timeoutError{op: op}
		case <-ch:
			// Deadline changed; loop and re-evaluate.
		}
	}
}

func (c *chaosConn) Read(p []byte) (int, error) {
	f, bit := c.plan.Check(fault.Read, c.peer, 8*len(p))
	if f == nil {
		return c.Conn.Read(p)
	}
	switch f.Kind {
	case fault.Delay:
		time.Sleep(f.Delay)
		return c.Conn.Read(p)
	case fault.Stall:
		return 0, c.stall(fault.Read)
	case fault.Flip:
		n, err := c.Conn.Read(p)
		if n > 0 {
			p[bit/8%n] ^= 1 << (bit % 8)
		}
		return n, err
	default:
		c.Close()
		return 0, failure(f, fault.Read, c.peer)
	}
}

func (c *chaosConn) Write(p []byte) (int, error) {
	f, bit := c.plan.Check(fault.Write, c.peer, 8*len(p))
	if f == nil {
		return c.Conn.Write(p)
	}
	switch f.Kind {
	case fault.Delay:
		time.Sleep(f.Delay)
		return c.Conn.Write(p)
	case fault.Stall:
		return 0, c.stall(fault.Write)
	case fault.Flip:
		// Corrupt a copy — the caller's buffer must stay pristine (the wire
		// client reuses it for retries, which must resend correct bytes).
		dup := make([]byte, len(p))
		copy(dup, p)
		if len(dup) > 0 {
			dup[bit/8] ^= 1 << (bit % 8)
		}
		return c.Conn.Write(dup)
	default:
		c.Close()
		return 0, failure(f, fault.Write, c.peer)
	}
}

// specKinds maps each spec kind to its fault kind and the ops it can act on;
// the first op is the default. partition acts on all three of its ops
// whatever op= says.
var specKinds = map[string]struct {
	kind fault.Kind
	ops  []fault.Op
}{
	"drop":      {fault.Fail, []fault.Op{fault.Dial, fault.Accept, fault.Read, fault.Write}},
	"reset":     {fault.Fail, []fault.Op{fault.Read, fault.Write}},
	"delay":     {fault.Delay, []fault.Op{fault.Read, fault.Write, fault.Dial, fault.Accept}},
	"stall":     {fault.Stall, []fault.Op{fault.Read, fault.Write, fault.Dial}},
	"flip":      {fault.Flip, []fault.Op{fault.Read, fault.Write}},
	"partition": {fault.Fail, []fault.Op{fault.Dial, fault.Read, fault.Write}},
}

// Parse reads the faults of a CLI spec: semicolon-separated faults of the form
//
//	kind[:key=value[,key=value...]]
//
// kinds: drop | delay | stall | reset | flip | partition
// keys:  op=dial|accept|read|write (default: read, dial for drop),
//
//	peer=<substring>, after=<N>, delay=<duration>, once
//
// drop and reset both fail the operation and close the connection; reset and
// flip act only on read|write, stall on dial|read|write. partition expands to
// persistent drop faults on dial+read+write toward peer. Examples:
//
//	partition:peer=10.0.0.3
//	reset:op=write,peer=:9301,after=12,once
//	delay:op=read,delay=50ms
//	flip:op=write,once
func Parse(spec string) ([]fault.Fault, error) {
	var faults []fault.Fault
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		name, args, _ := strings.Cut(raw, ":")
		sk, ok := specKinds[name]
		if !ok {
			return nil, fmt.Errorf("netchaos: unknown fault kind %q in %q", name, raw)
		}
		f := fault.Fault{Op: sk.ops[0], Kind: sk.kind}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, _ := strings.Cut(kv, "=")
				switch key {
				case "op":
					i := slices.IndexFunc(sk.ops, func(o fault.Op) bool { return o.String() == val })
					if i < 0 {
						return nil, fmt.Errorf("netchaos: %s cannot act on op %q in %q", name, val, raw)
					}
					f.Op = sk.ops[i]
				case "peer":
					f.Target = val
				case "after":
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("netchaos: bad after=%q in %q", val, raw)
					}
					f.After = n
				case "delay":
					d, err := time.ParseDuration(val)
					if err != nil {
						return nil, fmt.Errorf("netchaos: bad delay=%q in %q", val, raw)
					}
					f.Delay = d
				case "once":
					f.Once = true
				default:
					return nil, fmt.Errorf("netchaos: unknown key %q in %q", key, raw)
				}
			}
		}
		if name == "partition" {
			faults = append(faults, Partition(f.Target, f.After)...)
			continue
		}
		if f.Kind == fault.Delay && f.Delay <= 0 {
			return nil, fmt.Errorf("netchaos: delay fault needs delay=<duration> in %q", raw)
		}
		faults = append(faults, f)
	}
	return faults, nil
}
