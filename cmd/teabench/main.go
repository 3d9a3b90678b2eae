// Command teabench regenerates the paper's evaluation artifacts (Table 4 and
// Figures 2, 9–14 plus the §5.2 parameter sensitivity study, two ablations and
// the distributed-style extension) on the scaled synthetic dataset profiles.
//
// Usage:
//
//	teabench [flags] <experiment>...
//	teabench all                     # every experiment, in paper order
//
// The experiments are the rows of table below. Steps/s, latency and index bytes
// are not teabench's job: `bash bench/run.sh` is the one performance record
// (PERF.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/tea-graph/tea/internal/experiments"
	"github.com/tea-graph/tea/internal/gen"
)

// experiment is one row of the table every part of the command reads: the
// usage text, "all", argument validation, and both output formats.
type experiment struct {
	name, title string
	// run returns the typed rows (for -json) and their rendered table.
	run func(experiments.Config) (rows any, text string, err error)
}

// row pairs an experiment function with the renderer of its row type.
func row[R any](name, title string, run func(experiments.Config) ([]R, error), render func([]R) string) experiment {
	return experiment{name, title, func(cfg experiments.Config) (any, string, error) {
		rows, err := run(cfg)
		return rows, render(rows), err
	}}
}

// table lists the experiments in paper order.
var table = []experiment{
	row("fig2", "Figure 2: average sampling cost (edges/step)", experiments.Fig2, experiments.RenderFig2),
	row("table4", "Table 4: runtime and speedups", experiments.Table4, experiments.RenderTable4),
	row("fig9", "Figure 9: memory usage", experiments.Fig9, experiments.RenderFig9),
	row("fig10", "Figure 10: TEA vs other engines", experiments.Fig10, experiments.RenderFig10),
	row("sens", "Section 5.2: parameter sensitivity", experiments.Sensitivity, experiments.RenderSens),
	row("fig11", "Figure 11: piecewise breakdown (HPAT, auxiliary index)", experiments.Fig11, experiments.RenderFig11),
	row("fig12", "Figure 12: sampling methods (runtime, memory)", experiments.Fig12, experiments.RenderFig12),
	row("fig13a", "Figure 13a: candidate edge set search", experiments.Fig13aCandidateSearch, experiments.RenderFig13Scaling),
	row("fig13b", "Figure 13b: HPAT generation", experiments.Fig13bHPATBuild, experiments.RenderFig13Scaling),
	row("fig13c", "Figure 13c: auxiliary index generation", experiments.Fig13cAuxIndex, experiments.RenderFig13Scaling),
	row("fig13d", "Figure 13d: incremental HPAT updating", func(cfg experiments.Config) ([]experiments.Fig13dRow, error) {
		return experiments.Fig13dIncremental(cfg, nil, nil)
	}, experiments.RenderFig13d),
	row("fig13e", "Figure 13e: preprocessing thread scaling", func(cfg experiments.Config) ([]experiments.Fig13eRow, error) {
		return experiments.Fig13ePreprocess(cfg, nil)
	}, experiments.RenderFig13e),
	row("fig14", "Figure 14: out-of-core execution", experiments.Fig14OutOfCore, experiments.RenderFig14),
	row("ablation-degree", "Ablation: per-sample cost vs vertex degree (complexity table of §4.3)", func(cfg experiments.Config) ([]experiments.AblationDegreeRow, error) {
		return experiments.AblationDegreeScaling(cfg, nil)
	}, experiments.RenderAblationDegree),
	row("ablation-trunk", "Ablation: PAT trunk-size policy (§3.2)", func(cfg experiments.Config) ([]experiments.AblationTrunkRow, error) {
		return experiments.AblationTrunkSize(cfg, 0, nil)
	}, experiments.RenderAblationTrunk),
	row("dist", "Extension: distributed-style execution (§4.4 future work)", func(cfg experiments.Config) ([]experiments.DistRow, error) {
		return experiments.DistScaling(cfg, nil)
	}, experiments.RenderDist),
}

func names(table []experiment) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// resolve maps every argument to its table row ("all" expands to the whole
// table), so a misspelt name fails before any experiment has run.
func resolve(table []experiment, args []string) ([]experiment, error) {
	var selected []experiment
next:
	for _, arg := range args {
		if arg == "all" {
			selected = append(selected, table...)
			continue
		}
		for _, e := range table {
			if e.name == arg {
				selected = append(selected, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (want one of: all %s)", arg, strings.Join(names(table), " "))
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment named")
	}
	return selected, nil
}

// options are teabench's flags; config turns them into an experiment Config.
type options struct {
	quick, asJSON          bool
	threads, walks, length int
	seed                   uint64
	contrast               float64
	dataset                string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.quick, "quick", false, "use 10x-smaller dataset profiles")
	fs.IntVar(&o.threads, "threads", 0, "worker threads (0 = GOMAXPROCS)")
	fs.IntVar(&o.walks, "walks", 0, "walks per vertex R (0 = calibrated default)")
	fs.IntVar(&o.length, "length", 80, "walk length L")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.contrast, "contrast", 50, "exponential weight contrast (lambda*timespan)")
	fs.StringVar(&o.dataset, "dataset", "", "restrict to one dataset (growth|edit|delicious|twitter)")
	fs.BoolVar(&o.asJSON, "json", false, "emit rows as JSON instead of tables")
	return o
}

func (o *options) config() (experiments.Config, error) {
	cfg := experiments.Default()
	if o.quick {
		cfg = experiments.Quick()
	}
	if o.threads > 0 {
		cfg.Threads = o.threads
	}
	if o.walks > 0 {
		cfg.WalksPerVertex = o.walks
	}
	cfg.Length = o.length
	cfg.Seed = o.seed
	cfg.Contrast = o.contrast
	if o.dataset != "" {
		var keep []gen.Profile
		for _, p := range cfg.Profiles {
			if strings.HasPrefix(p.Name, o.dataset) {
				keep = append(keep, p)
			}
		}
		if len(keep) == 0 {
			return cfg, fmt.Errorf("unknown dataset %q", o.dataset)
		}
		cfg.Profiles = keep
	}
	return cfg, nil
}

// runAll runs the selected experiments in order, printing each as a table or,
// with asJSON, as one {"experiment", "rows"} document.
func runAll(selected []experiment, cfg experiments.Config, asJSON bool) error {
	for _, e := range selected {
		if !asJSON {
			fmt.Printf("== %s ==\n", e.title)
		}
		start := time.Now()
		rows, text, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{"experiment": e.name, "rows": rows}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%s(%s elapsed)\n\n", text, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: teabench [flags] <experiment>...\n\nexperiments: all %s\n\nflags:\n",
			strings.Join(names(table), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	selected, err := resolve(table, flag.Args())
	var cfg experiments.Config
	if err == nil {
		cfg, err = opts.config()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teabench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := runAll(selected, cfg, opts.asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "teabench:", err)
		os.Exit(1)
	}
}
