package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/shard/wire"
)

// ReplicaPeersConfig configures the health-aware peer table.
type ReplicaPeersConfig struct {
	Client wire.ClientConfig
	// Metrics receives the tea_shard_replica_* family; nil means
	// metrics.Default.
	Metrics *metrics.Registry
}

// ReplicaPeers is a StepCaller over replica groups: every partition maps to
// N interchangeable addresses, attempts prefer the healthiest replica, a
// failed hop re-sends the same walker frames to a sibling (byte-identical
// by construction — the frames carry raw RNG state).
type ReplicaPeers struct {
	groups map[int]*ReplicaGroup[*wire.Client]
}

// Peers is the single-replica view of ReplicaPeers, built by NewPeers for
// tests and deployments without replication.
type Peers = ReplicaPeers

// NewPeers builds pooled clients for every peer address: a ReplicaPeers
// with groups of one. addrs maps shard id to host:port; the local shard must
// not appear in it.
func NewPeers(addrs map[int]string, cfg wire.ClientConfig) *Peers {
	groups := make(map[int][]string, len(addrs))
	for id, addr := range addrs {
		groups[id] = []string{addr}
	}
	return NewReplicaPeers(groups, ReplicaPeersConfig{Client: cfg, Metrics: cfg.Metrics})
}

// ParseReplicaList parses the replica-list syntax of teaserve's -shard-peers,
// tearouter's -shards and RouterConfig.Shards: entries[i] names partition
// i's interchangeable replicas, separated by "|" ("a|b,c|d" split on ","),
// each trimmed of spaces. An empty replica, including an empty entry, is
// refused: dropping it would silently change a partition's replica set or
// the partition count, which every process must agree on.
func ParseReplicaList(entries []string) ([][]string, error) {
	out := make([][]string, len(entries))
	for i, entry := range entries {
		for _, a := range strings.Split(entry, "|") {
			if a = strings.TrimSpace(a); a == "" {
				return nil, fmt.Errorf("partition %d: empty replica in %q", i, entry)
			}
			out[i] = append(out[i], a)
		}
	}
	return out, nil
}

// NewReplicaPeers builds pooled clients for every replica of every peer
// partition. addrs maps shard id to that partition's replica addresses (the
// local shard must not appear).
func NewReplicaPeers(addrs map[int][]string, cfg ReplicaPeersConfig) *ReplicaPeers {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	if cfg.Client.Metrics == nil {
		cfg.Client.Metrics = cfg.Metrics
	}
	dial := func(addr string) *wire.Client { return wire.NewClient(addr, cfg.Client) }
	rp := &ReplicaPeers{groups: make(map[int]*ReplicaGroup[*wire.Client], len(addrs))}
	for id, as := range addrs {
		rp.groups[id] = NewReplicaGroup(id, as, dial, cfg.Metrics, "tea_shard_replica", "shard.failover")
	}
	return rp
}

// refused reports a deliberate refusal by the peer (a config mismatch):
// siblings share the fingerprint and would refuse identically, so it is
// never failed over.
func refused(err error) bool {
	var remote *wire.RemoteError
	return errors.As(err, &remote)
}

// Step implements StepCaller with mid-request failover: replicas are tried
// one at a time in health order until one answers; a refusal is returned at
// once.
func (rp *ReplicaPeers) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	g, ok := rp.groups[shardID]
	if !ok {
		return nil, fmt.Errorf("shard: no peer addresses for shard %d", shardID)
	}
	var resp *wire.StepResponse
	err := g.Try(ctx, func(r *Replica[*wire.Client]) (err error) {
		resp, err = r.Conn.Step(ctx, req)
		return err
	}, refused)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// ReplicaStatus is one peer replica's health as reported by /healthz.
type ReplicaStatus struct {
	Addr string `json:"addr"`
	ReplicaHealth
	OpenConns int `json:"open_conns"`
}

// Snapshot reports every peer partition's replica table for observability.
func (rp *ReplicaPeers) Snapshot() map[int][]ReplicaStatus {
	out := make(map[int][]ReplicaStatus, len(rp.groups))
	for id, g := range rp.groups {
		sts := make([]ReplicaStatus, 0, len(g.Replicas))
		for _, r := range g.Replicas {
			sts = append(sts, ReplicaStatus{Addr: r.Addr, ReplicaHealth: r.Health(), OpenConns: r.Conn.OpenConns()})
		}
		out[id] = sts
	}
	return out
}

// Ping probes every peer partition; a partition is reachable if any one of
// its replicas answers. Outcomes feed the breakers, so startup pings also warm
// the health table.
func (rp *ReplicaPeers) Ping(ctx context.Context) error {
	for id, g := range rp.groups {
		err := g.Try(ctx, func(r *Replica[*wire.Client]) error { return r.Conn.Ping(ctx) }, nil)
		if err != nil {
			return fmt.Errorf("shard %d unreachable on all replicas: %w", id, err)
		}
	}
	return nil
}

// Close releases every replica's pooled connections.
func (rp *ReplicaPeers) Close() {
	for _, g := range rp.groups {
		for _, r := range g.Replicas {
			r.Conn.Close()
		}
	}
}
