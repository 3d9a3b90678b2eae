package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"github.com/tea-graph/tea/internal/trace"
)

// NewLogger returns the structured logger Run builds when Config.Logger is
// nil, writing to w: text records, or JSON ones when asJSON is set, each
// carrying request_id/trace_id when its context does.
func NewLogger(w io.Writer, asJSON bool) *slog.Logger {
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return slog.New(trace.NewLogHandler(h))
}

// Serve answers HTTP on ln with h until ctx is done, then stops accepting,
// gives in-flight requests up to drain to finish, runs onShutdown (if any)
// and returns nil. An error — serving failed, or the drain window ran out —
// is logged and returned.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, logger *slog.Logger, onShutdown func()) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("drain incomplete", "error", err)
		return err
	}
	if onShutdown != nil {
		onShutdown()
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve error", "error", err)
	}
	logger.Info("bye")
	return nil
}
