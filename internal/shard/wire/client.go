package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
)

// PeerError is a definitive failure from or about a peer shard: the peer is
// unreachable after retries, answered a TypeError frame, or spoke garbage.
// Callers (the shard coordinator, the HTTP layer) map it to 503 +
// Retry-After — the cluster is degraded, not the request.
type PeerError struct {
	Addr string
	Err  error
}

func (e *PeerError) Error() string { return fmt.Sprintf("shard peer %s: %v", e.Addr, e.Err) }
func (e *PeerError) Unwrap() error { return e.Err }

// RemoteError is the decoded body of a TypeError frame: the peer processed
// the frame and deliberately refused it (config mismatch, handler failure).
// Deliberate refusals are not retried — the peer will refuse again.
type RemoteError struct {
	Addr string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("shard peer %s refused: %s", e.Addr, e.Msg) }

// aLongTimeAgo is a deadline that is guaranteed to have passed; setting it on
// a connection interrupts any blocked Read/Write (the net.http idiom for
// cancelling in-flight I/O from another goroutine).
var aLongTimeAgo = time.Unix(1, 0)

// DialFunc dials one connection to a peer. Fault-injection harnesses
// (internal/netchaos) hook the client here.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// Connection and retry policy of every peer client.
const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// maxIdleConns caps pooled idle connections per peer.
	maxIdleConns = 4
	// maxIdleAge caps how long a pooled connection may sit idle before it is
	// reaped at the next checkout instead of reused.
	maxIdleAge = 60 * time.Second
	// maxRetries is the number of re-attempts after the first failed try on
	// transient (connection-level) errors.
	maxRetries = 2
	// retryBackoff is the sleep before the first retry; it doubles each
	// attempt.
	retryBackoff = 25 * time.Millisecond
)

// ClientConfig tunes a peer client. The zero value is usable.
type ClientConfig struct {
	// Dialer replaces the default net.Dialer when non-nil. dialTimeout still
	// bounds the attempt via the context passed in.
	Dialer DialFunc
	// Metrics receives tea_shard_* client counters; nil means metrics.Default.
	Metrics *metrics.Registry
}

// pconn is a pooled connection plus its reusable frame buffers. The buffers
// live with the connection — one exchange owns a connection at a time, so a
// warm connection encodes requests and reads responses with zero allocations
// regardless of how many Step calls run concurrently.
type pconn struct {
	net.Conn
	rbuf      []byte    // ReadFrameBuf scratch
	wbuf      []byte    // BeginFrame/SealFrame scratch
	idleSince time.Time // when the conn was last checked in
	owner     *Client
	closeOnce sync.Once
}

// Close closes the underlying connection exactly once and keeps the owner's
// open-connection accounting honest no matter how many error paths call it.
func (p *pconn) Close() error {
	err := net.ErrClosed
	p.closeOnce.Do(func() {
		p.owner.mu.Lock()
		p.owner.open--
		open := p.owner.open
		p.owner.mu.Unlock()
		p.owner.openConns.Set(float64(open))
		err = p.Conn.Close()
	})
	return err
}

// Client is a connection-pooled wire client for one peer shard. A connection
// carries one request/response exchange at a time; concurrent Step calls each
// check a connection out of the pool (or dial a fresh one) so they never
// interleave frames on a stream.
type Client struct {
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	idle   []*pconn
	open   int // dialed and not yet closed (idle + in-flight)
	closed bool

	retries   *metrics.Counter
	errs      *metrics.Counter
	sentBytes *metrics.Counter
	recvBytes *metrics.Counter
	reaped    *metrics.Counter
	stale     *metrics.Counter
	hopSecs   *metrics.Histogram
	openConns *metrics.Gauge
}

// NewClient builds a client for the peer at addr (host:port).
func NewClient(addr string, cfg ClientConfig) *Client {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	return &Client{
		addr:      addr,
		cfg:       cfg,
		retries:   cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_peer_retries_total{peer=%q}`, addr)),
		errs:      cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_peer_errors_total{peer=%q}`, addr)),
		sentBytes: cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_bytes_sent_total{peer=%q}`, addr)),
		recvBytes: cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_bytes_recv_total{peer=%q}`, addr)),
		reaped:    cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_conns_reaped_total{peer=%q}`, addr)),
		stale:     cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_conns_stale_total{peer=%q}`, addr)),
		hopSecs:   cfg.Metrics.Histogram(fmt.Sprintf(`tea_shard_hop_seconds{peer=%q}`, addr)),
		openConns: cfg.Metrics.Gauge(fmt.Sprintf(`tea_shard_peer_open_conns{peer=%q}`, addr)),
	}
}

// Addr returns the peer address this client dials.
func (c *Client) Addr() string { return c.addr }

// OpenConns reports connections dialed and not yet closed (idle + in-flight).
func (c *Client) OpenConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.open
}

// IdleConns reports connections currently parked in the pool.
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// Step sends one batched step request and waits for the response. Transient
// connection errors (dial failure, broken stream) are retried with
// exponential backoff up to maxRetries times; a TypeError answer is
// returned as *RemoteError without retrying. The context deadline bounds the
// whole exchange including retries, and cancelling the context interrupts an
// in-flight exchange rather than waiting out the connection deadline.
func (c *Client) Step(ctx context.Context, req *StepRequest) (*StepResponse, error) {
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			// A retry counts once its backoff is over and it is about to run.
			if ctx.Err() != nil {
				return nil, &PeerError{Addr: c.addr, Err: fmt.Errorf("%w (last: %v)", ctx.Err(), lastErr)}
			}
			c.retries.Inc()
			backoff *= 2
		}
		resp, err := c.exchange(ctx, req)
		if err == nil {
			return resp, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			c.errs.Inc()
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.errs.Inc()
	return nil, &PeerError{Addr: c.addr, Err: lastErr}
}

// Ping probes the peer with a ping/pong exchange.
func (c *Client) Ping(ctx context.Context) error {
	conn, err := c.checkout(ctx)
	if err != nil {
		return &PeerError{Addr: c.addr, Err: err}
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(aLongTimeAgo) })
	if err := c.applyDeadline(ctx, conn); err != nil {
		stop()
		conn.Close()
		return &PeerError{Addr: c.addr, Err: err}
	}
	if err := WriteFrame(conn, TypePing, nil); err != nil {
		stop()
		conn.Close()
		return &PeerError{Addr: c.addr, Err: err}
	}
	typ, _, err := ReadFrame(conn)
	if err != nil || typ != TypePong {
		stop()
		conn.Close()
		if err == nil {
			err = fmt.Errorf("unexpected frame type %d to ping", typ)
		}
		return &PeerError{Addr: c.addr, Err: err}
	}
	c.release(conn, stop)
	return nil
}

// exchange performs one try: checkout, encode into the connection's write
// buffer, write, read into its read buffer, checkin. An AfterFunc poisons
// the connection deadline if ctx is cancelled mid-flight so blocked I/O
// returns immediately instead of holding a goroutine and a socket.
func (c *Client) exchange(ctx context.Context, req *StepRequest) (*StepResponse, error) {
	conn, err := c.checkout(ctx)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(aLongTimeAgo) })
	fail := func(err error) error {
		stop()
		conn.Close()
		return err
	}
	if err := c.applyDeadline(ctx, conn); err != nil {
		return nil, fail(err)
	}
	frame := BeginFrame(conn.wbuf[:0], TypeStep)
	frame = AppendStepRequest(frame, req)
	frame, err = SealFrame(frame)
	if err != nil {
		return nil, fail(err)
	}
	conn.wbuf = frame
	start := time.Now()
	if _, err := conn.Write(frame); err != nil {
		return nil, fail(err)
	}
	c.sentBytes.Add(int64(len(frame)))
	typ, body, rbuf, err := ReadFrameBuf(conn, conn.rbuf)
	conn.rbuf = rbuf
	if err != nil {
		return nil, fail(err)
	}
	c.recvBytes.Add(int64(FrameSize(len(body))))
	c.hopSecs.ObserveSince(start)
	switch typ {
	case TypeStepResp:
		resp, err := DecodeStepResponse(body)
		if err != nil {
			return nil, fail(err)
		}
		c.release(conn, stop)
		return resp, nil
	case TypeError:
		// The connection is still framed correctly; keep it.
		c.release(conn, stop)
		return nil, &RemoteError{Addr: c.addr, Msg: string(body)}
	default:
		return nil, fail(fmt.Errorf("unexpected frame type %d", typ))
	}
}

// release disarms the cancellation AfterFunc and returns the connection to
// the pool. If the AfterFunc already started — the context raced the end of
// the exchange — the deadline may be poisoned, so the conn is not reusable.
func (c *Client) release(conn *pconn, stop func() bool) {
	if !stop() {
		conn.Close()
		return
	}
	c.checkin(conn)
}

func (c *Client) applyDeadline(ctx context.Context, conn net.Conn) error {
	if dl, ok := ctx.Deadline(); ok {
		return conn.SetDeadline(dl)
	}
	return conn.SetDeadline(time.Time{})
}

// checkout pops the most recently used idle connection, reaping any that
// outlived maxIdleAge or fail a liveness poke (a peer restart leaves behind
// conns that look open but are dead — detect them here, not mid-request).
func (c *Client) checkout(ctx context.Context) (*pconn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("client closed")
		}
		n := len(c.idle)
		if n == 0 {
			c.mu.Unlock()
			break
		}
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		expired := time.Since(conn.idleSince) > maxIdleAge
		c.mu.Unlock()
		if expired {
			c.reaped.Inc()
			conn.Close()
			continue
		}
		if !c.alive(conn) {
			c.stale.Inc()
			conn.Close()
			continue
		}
		return conn, nil
	}
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, dialTimeout)
		defer cancel()
	}
	var raw net.Conn
	var err error
	if c.cfg.Dialer != nil {
		raw, err = c.cfg.Dialer(dctx, "tcp", c.addr)
	} else {
		d := net.Dialer{Timeout: dialTimeout}
		raw, err = d.DialContext(dctx, "tcp", c.addr)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.open++
	open := c.open
	c.mu.Unlock()
	c.openConns.Set(float64(open))
	return &pconn{Conn: raw, owner: c}, nil
}

// alive verifies a pooled connection is still usable (see connCheck).
func (c *Client) alive(conn *pconn) bool {
	return connCheck(conn.Conn) == nil
}

func (c *Client) checkin(conn *pconn) {
	conn.SetDeadline(time.Time{})
	conn.idleSince = time.Now()
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// Close drops every pooled connection. In-flight exchanges finish on their
// own connections.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}
