package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/experiments"
)

func TestResolveRejectsUnknownBeforeAnyRun(t *testing.T) {
	runs := 0
	stub := func(experiments.Config) (any, string, error) {
		runs++
		return nil, "", nil
	}
	stubs := []experiment{{"a", "A", stub}, {"b", "B", stub}}

	for _, args := range [][]string{{"a", "b", "typo"}, {"typo", "a"}, {"all", "typo"}, {}} {
		if sel, err := resolve(stubs, args); err == nil {
			t.Errorf("resolve(%q) = %d experiments, want an error", args, len(sel))
		}
	}
	if runs != 0 {
		t.Fatalf("resolve ran %d experiments while validating", runs)
	}

	sel, err := resolve(stubs, []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("resolve kept %v, want the arguments' order [b a]", got)
	}
}

func TestTableIsThePaperOrderWithoutGaps(t *testing.T) {
	want := []string{"fig2", "table4", "fig9", "fig10", "sens", "fig11", "fig12",
		"fig13a", "fig13b", "fig13c", "fig13d", "fig13e", "fig14",
		"ablation-degree", "ablation-trunk", "dist"}
	all, err := resolve(table, []string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(all); !slices.Equal(got, want) {
		t.Fatalf("all expands to\n%v, want\n%v", got, want)
	}
	// Equal to a list without repeats, so no name is duplicated either.
	for _, e := range table {
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %q has no title or no run function", e.name)
		}
	}
}

// docs are the files that show teabench command lines, relative to the repo
// root.
var docs = []string{"README.md", "TUTORIAL.md", "DESIGN.md", "PERF.md",
	".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// retired are the pre-harness perf artifacts; bench/ is the one record now.
var retired = []string{"BENCH_walks", "BENCH_obs", "BENCH_shard", "BENCH_cache", "experiments_output"}

var (
	inlineCode = regexp.MustCompile("`[^`]+`")
	// invocation captures the arguments after a teabench command word, up to
	// the first shell operator or comment.
	invocation = regexp.MustCompile(`(?:^|[\s/` + "`" + `])teabench((?:[ \t]+[^\s&|;>#)` + "`" + `]+)*)`)
)

// codeLines returns what a reader would paste into a shell: every line of a
// workflow file, and the fenced blocks and inline code spans of a markdown one.
func codeLines(path, text string) []string {
	lines := strings.Split(text, "\n")
	if !strings.HasSuffix(path, ".md") {
		return lines
	}
	var out []string
	fenced := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			out = append(out, line)
		default:
			out = append(out, inlineCode.FindAllString(line, -1)...)
		}
	}
	return out
}

// checkInvocation reports the first argument teabench would reject.
func checkInvocation(fs *flag.FlagSet, args []string) string {
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case strings.HasPrefix(arg, "[") || strings.HasPrefix(arg, "<"): // usage placeholders
		case strings.HasPrefix(arg, "-"):
			name, _, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			f := fs.Lookup(name)
			if f == nil {
				return "flag " + arg + " is not registered"
			}
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !hasValue && !(ok && b.IsBoolFlag()) {
				i++ // the next word is this flag's value
			}
		default:
			if _, err := resolve(table, []string{arg}); err != nil {
				return err.Error()
			}
		}
	}
	return ""
}

// The docs and CI may only show teabench command lines that still work, and
// may not point back at the retired perf artifacts.
func TestDocsShowOnlyLiveInvocations(t *testing.T) {
	fs := flag.NewFlagSet("teabench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	invocations := 0
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, name := range retired {
			if strings.Contains(text, name) {
				t.Errorf("%s mentions the retired %s", doc, name)
			}
		}
		for _, line := range codeLines(doc, text) {
			for _, m := range invocation.FindAllStringSubmatch(line, -1) {
				invocations++
				if problem := checkInvocation(fs, strings.Fields(m[1])); problem != "" {
					t.Errorf("%s: %q: %s", doc, strings.TrimSpace(line), problem)
				}
			}
		}
	}
	if invocations == 0 {
		t.Fatal("found no teabench invocation in any doc; the extraction is broken")
	}
}
