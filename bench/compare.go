package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/tea-graph/tea/bench/measure"
)

// Set is several runs of one build: what `aa` writes and `compare` reads. A
// file holding a single Document is read as a set of one.
type Set struct {
	Runs []Document `json:"runs"`
}

func loadSet(path string) (Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Set{}, err
	}
	var both struct {
		Document
		Runs []Document `json:"runs"`
	}
	if err := json.Unmarshal(data, &both); err != nil {
		return Set{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(both.Runs) == 0 {
		both.Runs = []Document{both.Document}
	}
	for _, d := range both.Runs {
		if d.Schema != schema {
			return Set{}, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
		}
	}
	return Set{Runs: both.Runs}, nil
}

// Verdicts of one compared metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread is wider than the bound: no claim either way
	verdictNondet     = "nondeterministic"
)

// Row is one workload × metric line of a comparison.
type Row struct {
	Workload string
	Metric   Metric // names, unit, bound; Value unused
	A, B     measure.Summary
	// Worse is B's worsening as a share of A's median: positive is worse,
	// whichever direction the metric improves in.
	Worse   float64
	Spread  float64
	Verdict string
}

// samples gathers metric name of workload across a set's end-to-end runs:
// one value per run, and the widest in-run spread seen.
func samples(s Set, workload, name string, trace bool) (vals []float64, seeds []uint64, inRun float64, proto Metric) {
	for _, doc := range s.Runs {
		for _, r := range doc.Workloads {
			if r.Workload != workload || r.Trace != trace {
				continue
			}
			if m, ok := r.get(name); ok {
				vals = append(vals, m.Value)
				seeds = append(seeds, r.Env.Seed)
				inRun = max(inRun, measure.Summary{Median: m.Value, P25: m.P25, P75: m.P75}.Spread())
				proto = m
			}
		}
	}
	return vals, seeds, inRun, proto
}

// compareSets builds one row per workload and end-to-end metric, and one per
// exact count that failed to repeat.
func compareSets(a, b Set) []Row {
	var rows []Row
	for _, w := range workloads {
		for _, d := range defs {
			trace := d.Kind != endToEnd
			va, sa, inA, proto := samples(a, w.name, d.Name, trace)
			vb, sb, inB, _ := samples(b, w.name, d.Name, trace)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			proto.Bound = d.Bound // the table's bound, not the one the file was written with
			row := Row{Workload: w.name, Metric: proto, A: measure.Summarize(va), B: measure.Summarize(vb), Verdict: verdictOK}
			if d.Exact && !repeats(append(va, vb...), append(sa, sb...)) {
				row.Verdict = verdictNondet
				rows = append(rows, row)
				continue
			}
			if d.Kind != endToEnd {
				continue
			}
			row.Worse = (row.B.Median - row.A.Median) / row.A.Median
			if d.Better == "higher" {
				row.Worse = -row.Worse
			}
			// With three or more runs a side the spread is between runs;
			// with fewer it is the spread of windows inside the runs.
			row.Spread = max(inA, inB)
			if len(va) >= 3 && len(vb) >= 3 {
				row.Spread = max(row.A.Spread(), row.B.Spread())
			}
			switch {
			case row.Worse > d.Bound:
				row.Verdict = verdictWorse
			case row.Spread > d.Bound:
				row.Verdict = verdictUnresolved
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// repeats reports whether runs with equal seeds gave bit-identical values.
func repeats(vals []float64, seeds []uint64) bool {
	first := map[uint64]float64{}
	for i, v := range vals {
		if prev, ok := first[seeds[i]]; ok && math.Float64bits(prev) != math.Float64bits(v) {
			return false
		}
		first[seeds[i]] = v
	}
	return true
}

func fmtSummary(s measure.Summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.P25, s.P75)
}

// writeTable renders rows as a markdown table.
func writeTable(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "| workload | metric | unit | A median [p25, p75] | B median [p25, p75] | B worse than A by | spread | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %+.1f %% of %.5g | %.1f %% | %.0f %% | %s |\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, fmtSummary(r.A), fmtSummary(r.B),
			100*r.Worse, r.A.Median, 100*r.Spread, 100*r.Metric.Bound, r.Verdict)
	}
}

var errWorse = errors.New("at least one metric is worse than its bound allows, or an exact count did not repeat")

func verdictError(rows []Row) error {
	for _, r := range rows {
		if r.Verdict == verdictWorse || r.Verdict == verdictNondet {
			return errWorse
		}
	}
	return nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	rows := compareSets(a, b)
	writeTable(os.Stdout, rows)
	return verdictError(rows)
}

// aaMain runs this build against itself: two sets of runs, alternating, one
// seed throughout so that exact counts must agree, then compares them. It is
// how the bounds are checked to be wider than the benchmark's own noise.
func aaMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "end-to-end runs per set; each set also gets one traced run")
	seed := fs.Uint64("seed", 1, "seed of every run")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	dir := fs.String("dir", ".", "where A.json and B.json are written")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sets [2]Set
	for i := 0; i < 2*(*runs+1); i++ {
		o := options{seed: *seed, seconds: *seconds, trace: i >= 2**runs}
		fmt.Fprintf(os.Stderr, "aa: run %d of %d (set %c, trace=%v)\n", i+1, 2*(*runs+1), 'A'+rune(i%2), o.trace)
		doc, err := runAll(ctx, o)
		if err != nil {
			return err
		}
		sets[i%2].Runs = append(sets[i%2].Runs, *doc)
	}
	for i, name := range []string{"A.json", "B.json"} {
		f, err := os.Create(filepath.Join(*dir, name))
		if err != nil {
			return err
		}
		if err := writeJSON(f, sets[i]); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	rows := compareSets(sets[0], sets[1])
	writeTable(os.Stdout, rows)
	worst := 0.0
	for _, r := range rows {
		if r.Metric.Bound > 0 {
			worst = max(worst, math.Abs(r.Worse)/r.Metric.Bound)
		}
	}
	fmt.Printf("\nLargest A/A difference: %.0f %% of its bound (an end-to-end metric is fit for its bound when this stays under 50 %%).\n", 100*worst)
	return verdictError(rows)
}
