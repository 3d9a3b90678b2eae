package experiments

import (
	"time"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard"
)

// DistRow is one partition-count measurement of the distributed-execution
// extension (§4.4 future work): walker migrations per step approximate the
// network messages a real cluster would exchange, and the per-partition
// index footprint shows the memory scale-out.
type DistRow struct {
	Partitions      int
	Runtime         time.Duration
	Rounds          int
	Steps           int64
	Messages        int64
	MessagesPerStep float64
	MemoryPerPart   int64
}

// DistScaling runs the exponential walk on the first configured profile
// across partition counts. partitionCounts nil selects {1, 2, 4, 8}.
func DistScaling(cfg Config, partitionCounts []int) ([]DistRow, error) {
	cfg = cfg.normalized()
	if len(partitionCounts) == 0 {
		partitionCounts = []int{1, 2, 4, 8}
	}
	p := cfg.Profiles[0]
	g, err := p.Build()
	if err != nil {
		return nil, err
	}
	spec := sampling.Exponential(p.Lambda(cfg.Contrast))
	var rows []DistRow
	for _, parts := range partitionCounts {
		c, err := shard.NewCluster(g, spec, shard.ClusterConfig{Partitions: parts, Threads: cfg.Threads})
		if err != nil {
			return nil, err
		}
		res, err := c.Run(shard.ClusterRunConfig{
			WalksPerVertex: cfg.WalksPerVertex,
			Length:         cfg.Length,
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		row := DistRow{
			Partitions:    parts,
			Runtime:       res.Duration,
			Rounds:        res.Rounds,
			Steps:         res.Cost.Steps,
			Messages:      res.Messages,
			MemoryPerPart: c.MemoryBytes() / int64(parts),
		}
		if res.Cost.Steps > 0 {
			row.MessagesPerStep = float64(res.Messages) / float64(res.Cost.Steps)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
