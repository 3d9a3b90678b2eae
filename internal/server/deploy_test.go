package server

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/temporal"
)

// graphFile writes a small edge file for Run to load.
func graphFile(t *testing.T) string {
	t.Helper()
	edges := make([]temporal.Edge, 0, 600)
	for i := range 600 {
		edges = append(edges, temporal.Edge{
			Src: temporal.Vertex(i % 50), Dst: temporal.Vertex((i*7 + 3) % 50), Time: temporal.Time(i),
		})
	}
	path := filepath.Join(t.TempDir(), "g.teag")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := edgeio.WriteBinary(f, edges); err != nil {
		t.Fatal(err)
	}
	return path
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// quiet gives d its own registry and a discarding logger.
func quiet(d Deployment) Deployment {
	d.Metrics = metrics.NewRegistry()
	d.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	d.Drain = time.Second
	return d
}

// runUntilReady starts d.Run and waits for /readyz 200; the returned stop
// cancels the run and requires it to return nil.
func runUntilReady(t *testing.T, d Deployment) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + d.Addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("Run returned before ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("%s never answered /readyz 200", d.Addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return func() {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run on %s returned %v after cancel, want nil", d.Addr, err)
		}
	}
}

// Every mode starts through the Run the binaries call, answers /readyz and
// returns nil once its context ends; an out-of-core temp store is gone after.
func TestRunServesEveryMode(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	input := graphFile(t)
	app := core.AppSpec{Algo: "exp"}

	for _, d := range []Deployment{
		{Input: input, App: app, Engine: &EngineMode{}},
		{Input: input, App: app, Engine: &EngineMode{OutOfCore: true}},
		{App: app, Durable: &DurableMode{Dir: filepath.Join(t.TempDir(), "wal"), Fsync: "never"}},
	} {
		d.Addr = freeAddr(t)
		runUntilReady(t, quiet(d))()
	}

	// Two shards on loopback RPC, then a router over their HTTP addresses,
	// given without a scheme.
	peers := freeAddr(t) + "," + freeAddr(t)
	var stops []func()
	var shardAddrs []string
	for id := range 2 {
		d := quiet(Deployment{Input: input, App: app, Addr: freeAddr(t), Shard: &ShardMode{ID: id, Peers: peers}})
		stops = append(stops, runUntilReady(t, d))
		shardAddrs = append(shardAddrs, d.Addr)
	}
	router := quiet(Deployment{Addr: freeAddr(t), Router: &RouterMode{Shards: strings.Join(shardAddrs, ",")}})
	runUntilReady(t, router)()
	for _, stop := range stops {
		stop()
	}

	if left, _ := filepath.Glob(filepath.Join(tmp, "tea-ooc-*.dat")); len(left) > 0 {
		t.Fatalf("temp stores left behind: %v", left)
	}
}

// A start that fails after the out-of-core store exists — here the HTTP
// port is taken — returns the error and removes the temp store.
func TestRunReleasesOnFailedStart(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	d := quiet(Deployment{
		Input: graphFile(t), App: core.AppSpec{Algo: "exp"}, Addr: busy.Addr().String(),
		Engine: &EngineMode{OutOfCore: true},
	})
	if err := d.Run(context.Background()); err == nil {
		t.Fatal("Run on an occupied port returned nil")
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "tea-ooc-*.dat")); len(left) > 0 {
		t.Fatalf("temp stores left behind: %v", left)
	}
}

// Validate refuses what the flag tables cannot express but a Go caller can.
func TestValidateRefusesModeMismatches(t *testing.T) {
	input := "/nonexistent"
	for _, tc := range []struct {
		name string
		d    Deployment
		want string
	}{
		{"no mode", Deployment{Input: input}, "-input"},
		{"durable node2vec", Deployment{App: core.AppSpec{Algo: "node2vec", P: 1, Q: 1}, Durable: &DurableMode{Dir: "d", Fsync: "always"}}, "-algo"},
		{"durable bad fsync", Deployment{App: core.AppSpec{Algo: "exp"}, Durable: &DurableMode{Dir: "d", Fsync: "sometimes"}}, "-fsync"},
		{"router with input", Deployment{Input: input, Router: &RouterMode{Shards: "a"}}, "-input"},
		{"router stray comma", Deployment{Router: &RouterMode{Shards: "a,,b"}}, "-shards"},
		{"engine without input", Deployment{App: core.AppSpec{Algo: "exp"}, Engine: &EngineMode{}}, "-input"},
	} {
		err := tc.d.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}
