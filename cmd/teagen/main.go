// Command teagen generates synthetic temporal edge streams: either one of
// the scaled paper profiles (growth/edit/delicious/twitter) or a custom
// power-law stream, in text or binary format.
//
// Usage:
//
//	teagen -profile twitter -o twitter.teag
//	teagen -vertices 10000 -edges 500000 -skew 0.8 -format text -o g.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
)

func main() {
	var (
		profile  = flag.String("profile", "", "named profile: growth|edit|delicious|twitter")
		vertices = flag.Int("vertices", 10000, "vertex count (custom profile)")
		edges    = flag.Int("edges", 100000, "edge count (custom profile)")
		skew     = flag.Float64("skew", 0.8, "Zipf degree skew (custom profile)")
		seed     = flag.Uint64("seed", 1, "random seed")
		format   = flag.String("format", "binary", "output format: binary|text")
		out      = flag.String("o", "", "output path (default stdout for text)")
		describe = flag.Bool("describe", false, "print the generated graph's shape summary instead of writing it")
	)
	flag.Parse()

	var p gen.Profile
	if *profile != "" {
		found := false
		for _, cand := range gen.Profiles() {
			if cand.Name == *profile {
				p = cand
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown profile %q", *profile))
		}
	} else {
		p = gen.Profile{Name: "custom", Vertices: *vertices, Edges: *edges, Skew: *skew, Seed: *seed}
	}

	stream := p.Generate()
	if len(stream) == 0 {
		fatal(fmt.Errorf("profile %s generated no edges", p))
	}
	if *describe {
		g, err := temporal.FromEdges(stream, temporal.WithNumVertices(p.Vertices))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n%s", p, gen.Describe(g))
		return
	}

	var write func(io.Writer, []temporal.Edge) error
	switch *format {
	case "binary":
		write = edgeio.WriteBinary
	case "text":
		write = edgeio.WriteText
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	var err error
	switch {
	case *out != "":
		// Atomic: an interrupted run leaves any previous file at *out whole.
		err = vfs.ReplaceFile(vfs.OS, *out, ".teagen-*", func(w io.Writer) error { return write(w, stream) })
	case *format == "binary":
		err = fmt.Errorf("binary output requires -o")
	default:
		err = write(os.Stdout, stream)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "teagen: wrote %s (%d edges, %d vertices)\n", p, len(stream), p.Vertices)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teagen:", err)
	os.Exit(1)
}
