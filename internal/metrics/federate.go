// Metrics federation: merging the /metrics.json snapshots of a shard
// cluster into one view. The router scrapes every shard, stamps each series
// with a `shard="<id>"` label, and adds cluster rollups under `shard="all"`
// — counters summed, gauges summed or maxed per family policy, and the
// fixed-layout log-scale histograms merged bucket-wise (every process uses
// the same bucket bounds, so the merge is exact: total count and sum are
// preserved and merged quantiles equal pooled-sample quantiles up to bucket
// resolution). The scraping process's own series pass through unlabeled, so
// the three layers never collide:
//
//	tea_shard_steps_served_total{...}             the router's own (none)
//	tea_shard_steps_served_total{shard="1"}       shard 1's value
//	tea_shard_steps_served_total{shard="all"}     cluster rollup
package metrics

import (
	"math"
	"sort"
	"strconv"
)

// FederationLabel is the label key stamped on federated series.
const FederationLabel = "shard"

// RollupValue is the FederationLabel value of cluster rollup series.
const RollupValue = "all"

// ShardSnap is one scraped peer snapshot with the label value identifying
// it (typically the decimal shard id).
type ShardSnap struct {
	Label string
	Snap  *Snapshot
}

// gaugeRollup policies per family.
const (
	gaugeSum  = iota // additive resources: in-flight, resident bytes
	gaugeMax         // cluster-wide "highest": uptime
	gaugeSkip        // per-shard only: build info (a sum of 1s means nothing)
)

// gaugePolicy selects the rollup policy for one gauge family.
func gaugePolicy(family string) int {
	switch family {
	case "tea_build_info":
		return gaugeSkip
	case "tea_uptime_seconds":
		return gaugeMax
	default:
		return gaugeSum
	}
}

// WithLabel returns name with key="value" appended to its label block:
// `f{a="b"}` → `f{a="b",key="value"}`, `f` → `f{key="value"}`.
func WithLabel(name, key, value string) string {
	family, labels := splitName(name)
	return family + joinLabels(labels, key+"="+strconv.Quote(value))
}

// MergeHistogramSnaps merges histogram snapshots bucket-wise under the
// given series name. All snapshots must share the registry's fixed bucket
// layout (they do: the bounds are compile-time constants), so buckets align
// by upper bound; trailing-trimmed snapshots of different lengths merge
// correctly because cumulative counts are first de-accumulated per bucket.
// Total count and sum are preserved exactly.
func MergeHistogramSnaps(name string, parts ...HistogramSnap) HistogramSnap {
	out := HistogramSnap{Name: name}
	perBucket := make(map[float64]int64)
	for _, h := range parts {
		out.Count += h.Count
		out.Sum += h.Sum
		prev := int64(0)
		for _, b := range h.Buckets {
			perBucket[b.UpperBound] += b.Count - prev
			prev = b.Count
		}
	}
	bounds := make([]float64, 0, len(perBucket))
	for ub := range perBucket {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	cum := int64(0)
	for _, ub := range bounds {
		cum += perBucket[ub]
		out.Buckets = append(out.Buckets, BucketSnap{UpperBound: ub, Count: cum})
	}
	out.finalizeQuantiles()
	return out
}

// finalizeQuantiles recomputes the headline quantiles from the buckets,
// saturating +Inf at the top bound (as Registry.Snapshot does) so the
// result stays JSON-encodable.
func (h *HistogramSnap) finalizeQuantiles() {
	sat := func(q float64) float64 {
		v := h.Quantile(q)
		if math.IsInf(v, 1) {
			return bucketBound(histBuckets)
		}
		return v
	}
	h.P50 = sat(0.50)
	h.P95 = sat(0.95)
	h.P99 = sat(0.99)
}

// Federate merges peer snapshots into the scraper's own: own series pass
// through unchanged, every peer series is copied with its shard label, and
// cluster rollups are emitted under shard="all". The result is sorted like
// a Registry snapshot.
func Federate(own *Snapshot, shards []ShardSnap) *Snapshot {
	out := &Snapshot{}
	if own != nil {
		out.Counters = append(out.Counters, own.Counters...)
		out.Gauges = append(out.Gauges, own.Gauges...)
		out.Histograms = append(out.Histograms, own.Histograms...)
	}

	counterRoll := make(map[string]int64)
	gaugeRoll := make(map[string]float64)
	gaugeSeen := make(map[string]bool)
	histRoll := make(map[string][]HistogramSnap)
	var counterNames, gaugeNames, histNames []string

	for _, sh := range shards {
		if sh.Snap == nil {
			continue
		}
		for _, c := range sh.Snap.Counters {
			out.Counters = append(out.Counters, CounterSnap{
				Name: WithLabel(c.Name, FederationLabel, sh.Label), Value: c.Value})
			if _, ok := counterRoll[c.Name]; !ok {
				counterNames = append(counterNames, c.Name)
			}
			counterRoll[c.Name] += c.Value
		}
		for _, g := range sh.Snap.Gauges {
			out.Gauges = append(out.Gauges, GaugeSnap{
				Name: WithLabel(g.Name, FederationLabel, sh.Label), Value: g.Value})
			family, _ := splitName(g.Name)
			switch gaugePolicy(family) {
			case gaugeSkip:
				continue
			case gaugeMax:
				if !gaugeSeen[g.Name] || g.Value > gaugeRoll[g.Name] {
					gaugeRoll[g.Name] = g.Value
				}
			default:
				gaugeRoll[g.Name] += g.Value
			}
			if !gaugeSeen[g.Name] {
				gaugeSeen[g.Name] = true
				gaugeNames = append(gaugeNames, g.Name)
			}
		}
		for _, h := range sh.Snap.Histograms {
			out.Histograms = append(out.Histograms, HistogramSnap{
				Name:  WithLabel(h.Name, FederationLabel, sh.Label),
				Count: h.Count, Sum: h.Sum,
				P50: h.P50, P95: h.P95, P99: h.P99,
				Buckets: h.Buckets,
			})
			if _, ok := histRoll[h.Name]; !ok {
				histNames = append(histNames, h.Name)
			}
			histRoll[h.Name] = append(histRoll[h.Name], h)
		}
	}

	for _, name := range counterNames {
		out.Counters = append(out.Counters, CounterSnap{
			Name: WithLabel(name, FederationLabel, RollupValue), Value: counterRoll[name]})
	}
	for _, name := range gaugeNames {
		out.Gauges = append(out.Gauges, GaugeSnap{
			Name: WithLabel(name, FederationLabel, RollupValue), Value: gaugeRoll[name]})
	}
	for _, name := range histNames {
		merged := MergeHistogramSnaps(WithLabel(name, FederationLabel, RollupValue), histRoll[name]...)
		out.Histograms = append(out.Histograms, merged)
	}

	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
