// Command teawalk runs temporal random walks over an edge-list file and
// prints the sampled paths or a run summary.
//
// Usage:
//
//	teawalk -input graph.txt -algo node2vec -p 0.5 -q 2 -length 80 -walks 1
//	teawalk -input graph.teag -algo exp -lambda 0.001 -paths
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	tea "github.com/tea-graph/tea"
	"github.com/tea-graph/tea/cmd/internal/cli"
	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/walkio"
)

func main() {
	w, err := cli.Parse("teawalk", os.Args[1:], os.Stderr, cli.Teawalk)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	g, err := edgeio.LoadGraph(w.Input, nil)
	if err != nil {
		fatal(err)
	}
	app, err := w.App.App(g)
	if err != nil {
		fatal(err)
	}
	eng, err := tea.NewEngine(g, app, tea.Options{Method: w.Method, Threads: w.Config.Threads})
	if err != nil {
		fatal(err)
	}
	cfg := w.Config
	cfg.KeepPaths = w.Paths || w.Out != ""
	if w.From >= 0 {
		cfg.StartVertices = []tea.Vertex{tea.Vertex(w.From)}
	}
	res, err := eng.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if w.Out != "" {
		write := walkio.WriteBinary
		if strings.HasSuffix(w.Out, ".txt") {
			write = walkio.WriteText
		}
		// Atomic: an interrupted run leaves any previous file at w.Out whole.
		err := vfs.ReplaceFile(vfs.OS, w.Out, ".teawalk-*", func(f io.Writer) error { return write(f, res.Paths) })
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "teawalk: wrote %d walks to %s\n", len(res.Paths), w.Out)
	}
	if w.Paths {
		if err := walkio.WriteText(os.Stdout, res.Paths); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"teawalk: %s on %d vertices / %d edges: %d walks, %d steps, %.2f edges/step, %v (prep %v)\n",
		app.Name, g.NumVertices(), g.NumEdges(),
		res.Cost.WalksStarted, res.Cost.Steps, res.Cost.EdgesPerStep(),
		res.Duration.Round(1e6), eng.Preprocess().Total.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teawalk:", err)
	os.Exit(1)
}
