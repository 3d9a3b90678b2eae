package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/netchaos"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// replicatedCluster is 2 partitions × 2 replicas over loopback TCP. Replicas
// of a partition are independent Node instances with identical config — the
// walks are pure functions of the migrating frames, which is exactly why a
// sibling can answer a re-sent frame byte-identically.
type replicatedCluster struct {
	nodes   [][]*Node // [partition][replica]
	servers [][]*wire.Server
	addrs   [][]string
}

func startReplicatedCluster(t *testing.T, g *testutilGraph, parts, replicas int) *replicatedCluster {
	t.Helper()
	c := &replicatedCluster{
		nodes:   make([][]*Node, parts),
		servers: make([][]*wire.Server, parts),
		addrs:   make([][]string, parts),
	}
	for p := 0; p < parts; p++ {
		for r := 0; r < replicas; r++ {
			n, err := NewNode(g.g, g.spec, Config{
				ShardID: p, Partitions: parts, Threads: 2,
				Metrics: metrics.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.NewServer(ln, n, nil)
			t.Cleanup(func() { srv.Close() })
			c.nodes[p] = append(c.nodes[p], n)
			c.servers[p] = append(c.servers[p], srv)
			c.addrs[p] = append(c.addrs[p], ln.Addr().String())
		}
	}
	return c
}

// peersFor builds the replica table one coordinating partition uses to reach
// every other partition, optionally with a chaos dialer.
func (c *replicatedCluster) peersFor(t *testing.T, p int, dialer wire.DialFunc) *ReplicaPeers {
	t.Helper()
	addrs := make(map[int][]string)
	for q := range c.addrs {
		if q != p {
			addrs[q] = append([]string(nil), c.addrs[q]...)
		}
	}
	reg := metrics.NewRegistry()
	cfg := testReplicaConfig(reg)
	cfg.Client.Dialer = dialer
	rp := NewReplicaPeers(addrs, cfg)
	t.Cleanup(rp.Close)
	return rp
}

// testutilGraph bundles a graph with its weight spec for the cluster helper.
type testutilGraph struct {
	g    *temporal.Graph
	spec sampling.WeightSpec
}

// runMerged coordinates req on every partition (partition p using callers[p])
// and merges by global walk id.
func (c *replicatedCluster) runMerged(t *testing.T, callers []StepCaller, req WalkRequest, total int) ([]core.Path, error) {
	t.Helper()
	merged := make([]core.Path, total)
	seen := 0
	for p := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		res, err := c.nodes[p][0].RunWalks(ctx, callers[p], req)
		cancel()
		if err != nil {
			return nil, err
		}
		for i, wi := range res.WalkIDs {
			merged[wi] = res.Paths[i]
			seen++
		}
	}
	if seen != total {
		return nil, fmt.Errorf("coordinated %d of %d walks", seen, total)
	}
	return merged, nil
}

// TestChaosSingleReplicaFaultsByteIdentical is the tentpole oracle: with one
// replica of a partition killed, partitioned, resetting, or corrupting at a
// seeded injection point mid-request, the merged cluster output stays
// byte-identical to the single-process engine and the run sees no error.
func TestChaosSingleReplicaFaultsByteIdentical(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 71)
	spec := sampling.Exponential(0.01)
	const length, seed = 12, 4
	total := g.NumVertices()
	ref := referencePaths(t, g, spec, core.KernelBatch, length, 1, seed)
	tg := &testutilGraph{g: g, spec: spec}

	type faultCase struct {
		name   string
		inject func(p *fault.Plan, victim string, after int)
	}
	cases := []faultCase{
		{"partition", func(p *fault.Plan, victim string, after int) {
			p.Inject(netchaos.Partition(victim, after)...)
		}},
		{"reset-on-write", func(p *fault.Plan, victim string, after int) {
			p.Inject(fault.Fault{Op: fault.Write, Target: victim, After: after})
		}},
		{"reset-on-read", func(p *fault.Plan, victim string, after int) {
			p.Inject(fault.Fault{Op: fault.Read, Target: victim, After: after})
		}},
		{"byte-flip-once", func(p *fault.Plan, victim string, after int) {
			p.Inject(fault.Fault{Op: fault.Write, Kind: fault.Flip, Target: victim, After: after, Once: true})
		}},
	}
	for _, fc := range cases {
		for _, after := range []int{0, 1, 3, 7} {
			t.Run(fmt.Sprintf("%s/after=%d", fc.name, after), func(t *testing.T) {
				cluster := startReplicatedCluster(t, tg, 2, 2)
				victim := cluster.addrs[1][0] // partition 1's primary replica
				plan := fault.New(int64(after) + 17)
				fc.inject(plan, victim, after)
				callers := []StepCaller{
					cluster.peersFor(t, 0, netchaos.Dial(plan)), // coordinator 0 sees the fault
					cluster.peersFor(t, 1, nil),
				}
				got, err := cluster.runMerged(t, callers,
					WalkRequest{Length: length, Seed: seed, KeepPaths: true, RequestID: "chaos-" + fc.name}, total)
				if err != nil {
					t.Fatalf("cluster run under %s: %v", fc.name, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s after=%d: cluster output diverges from engine reference", fc.name, after)
				}
			})
		}
	}
}

// TestChaosReplicaKilledMidRequest: the SIGKILL analog — the victim replica's
// server is torn down after a few migration frames; the coordinator re-sends
// the in-flight frontier to the sibling and the output stays byte-identical.
func TestChaosReplicaKilledMidRequest(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 72)
	spec := sampling.WeightSpec{Kind: sampling.WeightLinearTime}
	const length, seed = 15, 9
	total := g.NumVertices()
	ref := referencePaths(t, g, spec, core.KernelBatch, length, 1, seed)
	cluster := startReplicatedCluster(t, &testutilGraph{g: g, spec: spec}, 2, 2)

	rp0 := cluster.peersFor(t, 0, nil)
	var calls atomic.Int64
	killer := stepFunc(func(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
		if calls.Add(1) == 3 {
			cluster.servers[1][0].Close() // SIGKILL the primary replica mid-run
		}
		return rp0.Step(ctx, shardID, req)
	})
	callers := []StepCaller{killer, cluster.peersFor(t, 1, nil)}
	got, err := cluster.runMerged(t, callers,
		WalkRequest{Length: length, Seed: seed, KeepPaths: true, RequestID: "chaos-kill"}, total)
	if err != nil {
		t.Fatalf("cluster run with killed replica: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("cluster output diverges from engine reference after replica kill")
	}
	if calls.Load() < 3 {
		t.Fatalf("kill point never reached (%d migration frames)", calls.Load())
	}
}

// TestChaosWholePartitionDownFailsFast: when EVERY replica of a partition is
// unreachable the run must fail with a PeerError (the 503 + Retry-After
// path), not hang and not fabricate output.
func TestChaosWholePartitionDownFailsFast(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 73)
	cluster := startReplicatedCluster(t, &testutilGraph{g: g, spec: sampling.WeightSpec{}}, 2, 2)
	plan := fault.New(5, netchaos.Partition(cluster.addrs[1][0], 0)...)
	plan.Inject(netchaos.Partition(cluster.addrs[1][1], 0)...)
	rp := cluster.peersFor(t, 0, netchaos.Dial(plan))
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	start := time.Now()
	_, err := cluster.nodes[0][0].RunWalks(ctx, rp, WalkRequest{Length: 10, Seed: 2})
	var peerErr *wire.PeerError
	if !errors.As(err, &peerErr) {
		t.Fatalf("want PeerError, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("whole-partition-down detection took %v", d)
	}
}
