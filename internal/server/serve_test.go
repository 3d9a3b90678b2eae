package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// Cancelling Serve's context drains: the request in flight at that moment
// still gets its full answer, onShutdown runs after it, and Serve returns
// nil inside the drain window.
func TestServeDrainsInFlightRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	events := make(chan string, 2)
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		events <- "handled"
		io.WriteString(w, "done")
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, h, 5*time.Second, NewLogger(io.Discard, false), func() { events <- "shutdown" })
	}()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{string(b), err}
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-replied; r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request: body %q, err %v", r.body, r.err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return inside the drain window")
	}
	if first, second := <-events, <-events; first != "handled" || second != "shutdown" {
		t.Fatalf("events %s, %s: want the request handled before onShutdown", first, second)
	}
}
