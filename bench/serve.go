package main

import (
	"bytes"
	"context"
	"fmt"
	"net"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
)

// Requests per window at full scale. A cluster request costs several times a
// single-server one (an RPC round per step), so its windows are smaller.
const (
	singleWindowN  = 500
	singleWindow1  = 125
	clusterWindowN = 100
	clusterWindow1 = 30
	serveSetups    = 3
	partitions     = 3
	// oracleRequests is how many cluster responses are compared with the
	// single-process engine's walks for the same (from, seed).
	oracleRequests = 200
)

// walkPhase returns a closed-loop /walk phase of n-request windows over
// workers connections. Latencies of the measured windows go to lat.
func walkPhase(e *env, c *walkClient, name string, id, n, workers int, lat *[]float64) *phase {
	return &phase{name: name, run: func(ctx context.Context, i int) (window, error) {
		reqs := e.stream.Requests(n, windowSeed(e.seed, id, i))
		sink := lat
		if i < 0 {
			sink = nil
		}
		// Windows are numbered from 0 for the decode schedule; the warm-up
		// shares window 0's slots.
		return c.run(ctx, reqs, max(i, 0)*n, workers, sink), nil
	}}
}

// serveMetrics reports the metrics both serving workloads share.
func serveMetrics(e *env, rep *Report, full, one *phase, lat []float64) {
	rep.phase(full)
	rep.phase(one)
	rep.series("steps_per_s", full.rates, full)
	rep.series("steps_per_s_1t", one.rates, one)
	e.latency(rep, lat, full)
}

// singleRig is one engine behind server.New on a loopback listener.
type singleRig struct {
	g    *temporal.Graph
	eng  *core.Engine
	srv  *server.Server
	addr string
}

// up builds the rig from the edge slice: graph, engine, listener, and one
// /readyz round trip.
func (rig *singleRig) up(ctx context.Context, e *env) (func(), error) {
	var err error
	rig.g, rig.eng, err = buildEngine(e)
	if err != nil {
		return nil, err
	}
	rig.srv = server.New(rig.eng)
	var stop func()
	rig.addr, stop, err = listen(rig.srv.Handler())
	if err != nil {
		return nil, err
	}
	probe := newWalkClient(rig.addr, 1, e.check)
	defer probe.close()
	if err := probe.waitReady(ctx); err != nil {
		stop()
		return nil, err
	}
	return func() {
		stop()
		*rig = singleRig{} // let the engine go before the next set-up builds its own
	}, nil
}

// runServeSingle is the one-server online workload.
func runServeSingle(ctx context.Context, e *env, rep *Report) error {
	rig := &singleRig{}
	setup, down, err := medianSetup(e.setups(serveSetups), func() (func(), error) { return rig.up(ctx, e) })
	if err != nil {
		return err
	}
	defer down()
	client := newWalkClient(rig.addr, e.conc, e.check)
	client.tamper = e.tamper
	defer client.close()

	var lat []float64
	full := walkPhase(e, client, fmt.Sprintf("clients-%d", e.conc), 1, e.scaled(singleWindowN), e.conc, &lat)
	one := walkPhase(e, client, "clients-1", 2, e.scaled(singleWindow1), 1, nil)
	if err := interleave(ctx, e, full, one); err != nil {
		return err
	}
	rep.put("setup_s", setup, nil)
	serveMetrics(e, rep, full, one, lat)
	rep.value("index_bytes_per_edge", float64(rig.eng.MemoryBytes())/float64(rig.g.NumEdges()), nil)
	return nil
}

// clusterRig is three shard nodes, each behind a wire server and a shard
// HTTP handler, and one router in front, all on loopback in this process.
type clusterRig struct {
	g       *temporal.Graph
	nodes   []*shard.Node
	peers   []*shard.Peers
	rpc     []string // wire addresses
	shards  []string // shard HTTP addresses
	router  string
	closers []func()
}

func (rig *clusterRig) down() {
	for i := len(rig.closers) - 1; i >= 0; i-- {
		rig.closers[i]()
	}
	*rig = clusterRig{}
}

// up builds the cluster from the edge slice and waits for the router's
// /readyz, which is green only when every shard's is.
func (rig *clusterRig) up(ctx context.Context, e *env) (err error) {
	defer func() {
		if err != nil {
			rig.down()
		}
	}()
	rig.g, err = temporal.FromEdges(e.stream.Edges, temporal.WithNumVertices(e.stream.V))
	if err != nil {
		return err
	}
	spec := sampling.Exponential(e.stream.Lambda())
	for i := 0; i < partitions; i++ {
		n, err := shard.NewNode(rig.g, spec, shard.Config{ShardID: i, Partitions: partitions})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ws := wire.NewServer(ln, n, nil)
		rig.closers = append(rig.closers, func() { _ = ws.Close() })
		rig.nodes = append(rig.nodes, n)
		rig.rpc = append(rig.rpc, ln.Addr().String())
	}
	var urls []string
	for i, n := range rig.nodes {
		addrs := map[int]string{}
		for j, a := range rig.rpc {
			if j != i {
				addrs[j] = a
			}
		}
		peers := shard.NewPeers(addrs, wire.ClientConfig{})
		rig.closers = append(rig.closers, peers.Close)
		rig.peers = append(rig.peers, peers)
		ss := server.NewShard(n, peers, server.Config{Instance: fmt.Sprintf("shard-%d", i), ShardID: i})
		addr, stop, err := listen(ss.Handler())
		if err != nil {
			return err
		}
		rig.closers = append(rig.closers, stop)
		rig.shards = append(rig.shards, addr)
		urls = append(urls, "http://"+addr)
	}
	rt, err := server.NewRouter(server.RouterConfig{Shards: urls})
	if err != nil {
		return err
	}
	rig.closers = append(rig.closers, rt.Close)
	var stop func()
	rig.router, stop, err = listen(rt.Handler())
	if err != nil {
		return err
	}
	rig.closers = append(rig.closers, stop)
	probe := newWalkClient(rig.router, 1, e.check)
	defer probe.close()
	return probe.waitReady(ctx)
}

func (rig *clusterRig) memoryBytes() int64 {
	var sum int64
	for _, n := range rig.nodes {
		sum += n.MemoryBytes()
	}
	return sum
}

// oracle compares cluster responses with the single-process engine: routed
// walks must equal the engine's for the same (from, seed), hop for hop.
func (rig *clusterRig) oracle(ctx context.Context, e *env, client *walkClient, n int) error {
	eng, err := core.NewEngine(rig.g, core.ExponentialWalk(e.stream.Lambda()), core.Options{})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range e.stream.Requests(n, e.seed^0x0c1e) {
		body, err := client.get(ctx, walkPath(r), &buf)
		if err != nil {
			return err
		}
		got, _, err := decodeWalks(body, walkCount)
		if err != nil {
			return err
		}
		want, err := eng.RunContext(ctx, walkConfig(r))
		if err != nil {
			return err
		}
		for i, p := range want.Paths {
			if !equalWalk(got[i], p) {
				e.check.failf("cluster walk %d from %d seed %d differs from the single-process engine's", i, r.From, r.Seed)
				break
			}
		}
	}
	e.check.ran("cluster_vs_engine", n)
	return nil
}

func equalWalk(got decodedWalk, want core.Path) bool {
	if len(got.verts) != len(want.Vertices) || len(got.times) != len(want.Times) {
		return false
	}
	for i, v := range want.Vertices {
		if got.verts[i] != v {
			return false
		}
	}
	for i, t := range want.Times {
		if got.times[i] != t {
			return false
		}
	}
	return true
}

// runServeCluster is the routed, sharded online workload.
func runServeCluster(ctx context.Context, e *env, rep *Report) error {
	rig := &clusterRig{}
	setup, down, err := medianSetup(e.setups(serveSetups), func() (func(), error) { return rig.down, rig.up(ctx, e) })
	if err != nil {
		return err
	}
	defer down()
	client := newWalkClient(rig.router, e.conc, e.check)
	client.tamper = e.tamper
	defer client.close()

	var lat []float64
	full := walkPhase(e, client, fmt.Sprintf("clients-%d", e.conc), 1, e.scaled(clusterWindowN), e.conc, &lat)
	one := walkPhase(e, client, "clients-1", 2, e.scaled(clusterWindow1), 1, nil)
	if err := interleave(ctx, e, full, one); err != nil {
		return err
	}
	rep.put("setup_s", setup, nil)
	serveMetrics(e, rep, full, one, lat)
	rep.value("index_bytes_per_edge", float64(rig.memoryBytes())/float64(rig.g.NumEdges()), nil)
	return rig.oracle(ctx, e, client, e.scaled(oracleRequests))
}
