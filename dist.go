package tea

import (
	"github.com/tea-graph/tea/internal/shard"
)

// Distributed-style execution — the §4.4 future-work direction of the paper
// (HPAT-based sampling inside a KnightKing-like partitioned walker engine),
// realized as the sharded deployment's nodes running in one process and
// exchanging walker batches through method calls instead of sockets.

type (
	// Cluster is a partitioned walk engine: each node owns a vertex
	// partition's adjacency and HPAT; walkers migrate between nodes.
	Cluster = shard.Cluster
	// ClusterConfig sizes the cluster.
	ClusterConfig = shard.ClusterConfig
	// ClusterRunConfig parameterizes a distributed run.
	ClusterRunConfig = shard.ClusterRunConfig
	// ClusterResult reports a distributed run, including cross-partition
	// message counts (the network traffic a real deployment would pay).
	ClusterResult = shard.ClusterResult
)

// ClusterNode2Vec configures distributed temporal node2vec: β is computed
// locally on every node via a replicated edge Bloom filter.
type ClusterNode2Vec = shard.Node2Vec

// NewCluster partitions g across nodes by activity time, one stretch of the
// timeline per node, and builds per-partition HPAT indices. Seeded walks
// equal NewEngine's for any partition count: each walker carries its private
// random stream across partitions.
func NewCluster(g *Graph, weight WeightSpec, cfg ClusterConfig) (*Cluster, error) {
	return shard.NewCluster(g, weight, cfg)
}
