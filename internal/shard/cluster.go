package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
)

// Cluster is a whole shard cluster inside one process: one Node per
// partition, stepping walkers through the InProcess caller — the deployment
// teaserve runs across processes, with method calls in place of sockets. Its
// walks equal core.Engine's for the same seed at any partition count.
type Cluster struct {
	nodes  []*Node
	caller *InProcess
}

// ClusterConfig sizes an in-process cluster.
type ClusterConfig struct {
	// Partitions is the node count; vertices are assigned by the
	// activity-time Partitioner. Must be ≥ 1.
	Partitions int
	// Threads bounds index-construction parallelism per partition.
	Threads int
	// Node2Vec, if non-nil, runs temporal node2vec on every node.
	Node2Vec *Node2Vec
}

// ClusterRunConfig parameterizes a cluster run over every vertex.
type ClusterRunConfig struct {
	// WalksPerVertex is R; default 1. Length is L; default 80.
	WalksPerVertex int
	Length         int
	// Seed drives every walker's stream, exactly as in core.
	Seed uint64
	// KeepPaths stores full walks in the result.
	KeepPaths bool
}

// ClusterResult aggregates a cluster run.
type ClusterResult struct {
	Cost     stats.Cost
	Duration time.Duration
	// Rounds is the largest scatter-gather round count of any node.
	Rounds int
	// Messages counts walker-steps served by a node other than the walk's
	// coordinator — the network traffic a deployment pays.
	Messages int64
	// LocalMoves counts walker-steps served by the coordinator itself.
	LocalMoves int64
	// Paths holds every walk's vertices when KeepPaths is set, indexed by
	// walk id.
	Paths [][]temporal.Vertex
}

// NewCluster builds one Node per partition over g. Custom weight functions
// are refused: a deployment cannot ship them to peer processes.
func NewCluster(g *temporal.Graph, spec sampling.WeightSpec, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("shard: need at least one partition, got %d", cfg.Partitions)
	}
	if spec.Custom != nil {
		return nil, errors.New("shard: custom weight functions are not supported in distributed mode")
	}
	reg := metrics.NewRegistry()
	c := &Cluster{nodes: make([]*Node, cfg.Partitions)}
	for id := range c.nodes {
		n, err := NewNode(g, spec, Config{ShardID: id, Partitions: cfg.Partitions, Threads: cfg.Threads, Node2Vec: cfg.Node2Vec, Metrics: reg})
		if err != nil {
			return nil, err
		}
		c.nodes[id] = n
	}
	c.caller = &InProcess{Nodes: c.nodes}
	return c, nil
}

// Partitions returns the node count.
func (c *Cluster) Partitions() int { return len(c.nodes) }

// MemoryBytes sums every node's footprint; each node holds its own copy of
// the node2vec Bloom filter.
func (c *Cluster) MemoryBytes() int64 {
	var b int64
	for _, n := range c.nodes {
		b += n.MemoryBytes()
	}
	return b
}

// Run walks R walks of length L from every vertex: every node coordinates
// the walks whose source it owns, all nodes concurrently, and the partial
// results are merged by walk id.
func (c *Cluster) Run(cfg ClusterRunConfig) (*ClusterResult, error) {
	req := WalkRequest{WalksPerVertex: cfg.WalksPerVertex, Length: cfg.Length, Seed: cfg.Seed, KeepPaths: cfg.KeepPaths}
	start := time.Now()
	parts := make([]*WalkResult, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = n.RunWalks(context.TODO(), c.caller, req)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res := &ClusterResult{Duration: time.Since(start)}
	for _, p := range parts {
		res.Cost.Add(p.Cost)
		res.Rounds = max(res.Rounds, p.Rounds)
		res.Messages += p.Migrations
		res.LocalMoves += p.LocalSteps
	}
	if cfg.KeepPaths {
		res.Paths = make([][]temporal.Vertex, res.Cost.WalksStarted)
		for _, p := range parts {
			for i, wi := range p.WalkIDs {
				res.Paths[wi] = p.Paths[i].Vertices
			}
		}
	}
	return res, nil
}
