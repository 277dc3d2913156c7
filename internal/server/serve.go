package server

import (
	"context"
	"errors"
	"net"
	"net/http"

	"bilsh/internal/httpx"
)

// Serve runs the HTTP API on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately (no new connections), while
// in-flight requests get up to the drain timeout (SetDrainTimeout, default
// 30s) to complete. It returns nil after a clean drain, the drain error
// (context.DeadlineExceeded) if requests were still running when the
// timeout expired, or the serve error if the listener failed first.
//
// The caller owns ctx; wiring it to SIGINT/SIGTERM via
// signal.NotifyContext gives the conventional kill-once-drain behavior
// (cmd/bilsh serve does exactly that).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := httpx.NewServer(s.Handler())
	// BaseContext ties request contexts to the serve context, so handlers
	// that care can observe the shutdown; Shutdown below still waits for
	// them to return.
	srv.BaseContext = func(net.Listener) context.Context { return ctx }

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failure before any shutdown was requested.
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	// Serve always returns ErrServerClosed after Shutdown; surface the
	// drain result instead.
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener bound to addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	return s.Serve(ctx, ln)
}
