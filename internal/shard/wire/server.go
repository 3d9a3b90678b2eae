package wire

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
)

// Handler answers a batched step request. Returning an error sends a
// TypeError frame (the connection stays up); the handler must be safe for
// concurrent calls, one per connection.
type Handler interface {
	HandleStep(ctx context.Context, req *StepRequest) (*StepResponse, error)
}

// Server accepts wire connections and dispatches frames to a Handler. One
// goroutine per connection; frames on one connection are handled serially
// (the protocol is strict request/response per stream).
type Server struct {
	ln      net.Listener
	handler Handler
	logger  *slog.Logger
	ctx     context.Context // cancelled on Close so wedged handlers drain
	cancel  context.CancelFunc

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer wraps an existing listener (so callers can bind :0 and read the
// real address) and begins accepting.
func NewServer(ln net.Listener, handler Handler, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		ln:      ln,
		handler: handler,
		logger:  logger,
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logger.Warn("shard rpc accept failed", "err", err)
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Frames on a connection are handled serially, so the connection owns its
	// scratch: the frame read buffer, the decoded request (walker slice
	// reused across frames), and the response encode buffer. A warm
	// connection serves a step round without allocating.
	var rbuf, wbuf []byte
	var req StepRequest
	for {
		typ, payload, nbuf, err := ReadFrameBuf(conn, rbuf)
		rbuf = nbuf
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				select {
				case <-s.done:
				default:
					s.logger.Warn("shard rpc read failed", "remote", conn.RemoteAddr().String(), "err", err)
				}
			}
			// Corrupt or truncated stream: the position is untrusted, so the
			// only safe response is to drop the connection.
			return
		}
		var frame []byte
		switch typ {
		case TypePing:
			frame = BeginFrame(wbuf[:0], TypePong)
		case TypeStep:
			var resp *StepResponse
			if err = DecodeStepRequestInto(payload, &req); err == nil {
				resp, err = s.handler.HandleStep(s.ctx, &req)
			}
			if err == nil {
				frame = AppendStepResponse(BeginFrame(wbuf[:0], TypeStepResp), resp)
			}
		default:
			err = errors.New("unknown frame type")
		}
		if err == nil {
			frame, err = SealFrame(frame)
		}
		if err != nil {
			// The frame passed its CRC, so the stream position is sound: a
			// malformed payload (a protocol bug, not line noise), a refused
			// step or an oversized reply is answered with TypeError and the
			// connection kept.
			frame, _ = SealFrame(append(BeginFrame(wbuf[:0], TypeError), err.Error()...))
		}
		wbuf = frame
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.cancel()
		err = s.ln.Close()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return err
}
