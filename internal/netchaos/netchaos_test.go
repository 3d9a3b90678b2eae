package netchaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
)

// echoServer accepts connections on a plain listener and echoes whatever it
// reads, so the client-side wrappers have a live peer to talk to.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

func dialChaos(t *testing.T, p *fault.Plan, addr string) net.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c, err := Dial(p)(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTransparentWithoutFaults(t *testing.T) {
	addr := echoServer(t)
	c := dialChaos(t, fault.New(1), addr)
	msg := []byte("hello")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo got %q", got)
	}
}

func TestDropDialRefused(t *testing.T) {
	addr := echoServer(t)
	p := fault.New(1, fault.Fault{Op: fault.Dial, Once: true})
	dial := Dial(p)
	ctx := context.Background()
	if _, err := dial(ctx, "tcp", addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected dial error, got %v", err)
	}
	// Once: the next dial goes through.
	c, err := dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if p.Fired() != 1 {
		t.Fatalf("fired = %d", p.Fired())
	}
}

// TestDialFaultNeverYieldsNilConn: whatever kind a dial fault has, the
// dialer returns a connection or an error, never neither — the wire client
// would dereference a nil conn.
func TestDialFaultNeverYieldsNilConn(t *testing.T) {
	addr := echoServer(t)
	for _, k := range []fault.Kind{fault.Fail, fault.Stall, fault.Flip, fault.Torn, fault.Crash} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		c, err := Dial(fault.New(1, fault.Fault{Op: fault.Dial, Kind: k}))(ctx, "tcp", addr)
		cancel()
		if c == nil && err == nil {
			t.Errorf("%s dial fault: nil conn and nil error", k)
		}
		if c != nil {
			c.Close()
		}
	}
}

func TestAfterSkipsOperations(t *testing.T) {
	addr := echoServer(t)
	p := fault.New(1, fault.Fault{Op: fault.Write, After: 2})
	c := dialChaos(t, p, addr)
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write: want injected reset, got %v", err)
	}
	// The conn was torn down with the reset.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after reset succeeded")
	}
}

func TestPartitionByPeer(t *testing.T) {
	addrA := echoServer(t)
	addrB := echoServer(t)
	p := fault.New(1, Partition(addrA, 0)...)
	dial := Dial(p)
	ctx := context.Background()
	if _, err := dial(ctx, "tcp", addrA); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned peer dialed: %v", err)
	}
	// The other peer is unaffected.
	c, err := dial(ctx, "tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Heal restores the link.
	p.Heal()
	c, err = dial(ctx, "tcp", addrA)
	if err != nil {
		t.Fatalf("healed dial: %v", err)
	}
	c.Close()
}

func TestStallHonorsDeadline(t *testing.T) {
	addr := echoServer(t)
	p := fault.New(1, fault.Fault{Op: fault.Read, Kind: fault.Stall, Once: true})
	c := dialChaos(t, p, addr)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 4))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
		t.Fatalf("stall returned after %v", d)
	}
}

func TestStallWakesOnDeadlineUpdate(t *testing.T) {
	addr := echoServer(t)
	p := fault.New(1, fault.Fault{Op: fault.Read, Kind: fault.Stall, Once: true})
	c := dialChaos(t, p, addr)
	// No deadline: the stall would block forever. Poisoning the deadline from
	// another goroutine (what the wire client does on context cancellation)
	// must wake it.
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 4))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.SetDeadline(time.Now().Add(-time.Second))
	select {
	case err := <-errCh:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want timeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read did not wake on deadline update")
	}
}

func TestFlipCorruptsOneBitOnWrite(t *testing.T) {
	addr := echoServer(t)
	p := fault.New(7, fault.Fault{Op: fault.Write, Kind: fault.Flip, Once: true})
	c := dialChaos(t, p, addr)
	msg := bytes.Repeat([]byte{0x00}, 64)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	// The caller's buffer must stay pristine.
	if !bytes.Equal(msg, bytes.Repeat([]byte{0x00}, 64)) {
		t.Fatal("flip mutated the caller's buffer")
	}
	got := make([]byte, 64)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if got[i]&(1<<b) != msg[i]&(1<<b) {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
}

func TestListenerDropsAcceptedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := fault.New(1, fault.Fault{Op: fault.Accept, Once: true})
	cln := Listener(p, ln)
	defer cln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := cln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	// First conn is dropped as it arrives; the second survives and Accept
	// returns it.
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case c := <-done:
		if c == nil {
			t.Fatal("accept failed")
		}
		c.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("accept did not deliver the surviving conn")
	}
	// The dropped conn reads EOF.
	c1.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("dropped conn still readable")
	}
}

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		faults  int
	}{
		{"", false, 0},
		{"partition:peer=10.0.0.3", false, 3},
		{"reset:op=write,peer=:9301,after=12,once", false, 1},
		{"delay:op=read,delay=50ms", false, 1},
		{"flip:op=write,once;drop:peer=h1", false, 2},
		{"stall", false, 1},
		{"drop:peer=h1:9000,after=3;delay:delay=50ms", false, 2}, // teaserve -chaos usage example
		{"delay", true, 0},                                       // delay without duration
		{"explode", true, 0},                                     // unknown kind
		{"drop:op=sideways", true, 0},                            // unknown op
		{"drop:after=-1", true, 0},
		{"flip:op=dial", true, 0}, // no bit to flip on a dial
		{"flip:op=accept", true, 0},
		{"stall:op=accept", true, 0}, // an accept has no deadline to stall to
		{"reset:op=accept", true, 0}, // reset needs an established stream
		{"reset:op=dial", true, 0},
		{"stall:op=dial", false, 1},
		{"drop:op=accept", false, 1},
		{"delay:op=accept,delay=5ms", false, 1},
	}
	for _, tc := range cases {
		faults, err := Parse(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Parse(%q): want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if n := len(faults); n != tc.faults {
			t.Errorf("Parse(%q): %d faults, want %d", tc.spec, n, tc.faults)
		}
	}
}

func TestSeededFlipIsDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		addr := echoServer(t)
		p := fault.New(seed, fault.Fault{Op: fault.Write, Kind: fault.Flip, Once: true})
		c := dialChaos(t, p, addr)
		msg := bytes.Repeat([]byte{0x00}, 32)
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 32)
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different corruption: %x vs %x", a, b)
	}
}
