package ooc

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/testutil"
)

// oocGolden is everything a seeded out-of-core run leaves behind: the walk
// bytes flushed to the output store, the flush count, the full cost record,
// and the device traffic on the sampler's source store.
type oocGolden struct {
	outSHA   string // first 16 hex digits of sha256 over the output file
	flushes  int
	cost     stats.Cost
	counters [4]int64 // source store: bytes read, read ops, bytes written, write ops
	pages    int64
}

// TestEngineGolden pins seeded out-of-core runs, cache off and on, for the
// TEA and GraphWalker disk samplers: any change to a walker's random stream,
// the walk order, the flush grouping or the on-disk layout moves at least
// one of the pinned values.
func TestEngineGolden(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	spec := sampling.Exponential(0.01)
	w := testutil.Weights(t, g, spec)

	cases := []struct {
		name  string
		build func(src BlockStore) (CacheableSampler, error)
		cache CacheConfig
		want  oocGolden
	}{
		{
			name:  "diskpat",
			build: func(src BlockStore) (CacheableSampler, error) { return BuildDiskPAT(w, src, 8) },
			want: oocGolden{
				outSHA:   "17b7d065085abd5a",
				flushes:  2,
				cost:     stats.Cost{Steps: 3805, EdgesEvaluated: 19653, WalksStarted: 1500, WalksDeadEnded: 1500},
				counters: [4]int64{971520, 6072, 0, 0},
				pages:    6072,
			},
		},
		{
			name:  "diskpat-cached",
			build: func(src BlockStore) (CacheableSampler, error) { return BuildDiskPAT(w, src, 8) },
			cache: CacheConfig{CapacityBytes: 64 << 10},
			want: oocGolden{
				outSHA:   "17b7d065085abd5a",
				flushes:  2,
				cost:     stats.Cost{Steps: 3805, EdgesEvaluated: 19653, WalksStarted: 1500, WalksDeadEnded: 1500},
				counters: [4]int64{65120, 407, 0, 0},
				pages:    407,
			},
		},
		{
			name:  "graphwalker",
			build: func(src BlockStore) (CacheableSampler, error) { return BuildDiskGraphWalker(g, spec, src) },
			want: oocGolden{
				outSHA:   "862db22540bdb002",
				flushes:  2,
				cost:     stats.Cost{Steps: 3782, EdgesEvaluated: 166783, WalksStarted: 1500, WalksDeadEnded: 1500},
				counters: [4]int64{1372344, 3782, 0, 0},
				pages:    3782,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, out := tempStore(t), tempStore(t)
			s, err := tc.build(src)
			if err != nil {
				t.Fatal(err)
			}
			src.ResetCounters()
			res, err := NewEngineWithOptions(g, s, out, EngineOptions{Cache: tc.cache}).Run(5, 10, 7)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(out.Path())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			var got oocGolden
			got.outSHA = hex.EncodeToString(sum[:8])
			got.flushes = res.Flushes
			got.cost = res.Cost
			got.counters[0], got.counters[1], got.counters[2], got.counters[3] = src.Counters()
			got.pages = src.PagesRead()
			if got != tc.want {
				t.Fatalf("golden mismatch\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
