package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tea-graph/tea/cmd/internal/cli"
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

// docs are the files, relative to the repo root, whose command lines the
// guard keeps live.
var docs = []string{"README.md", "TUTORIAL.md", "DESIGN.md", "PERF.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml", "ci/cluster_chaos_drill.sh"}

// retired are the pre-harness perf artifacts; bench/ is the one record now.
var retired = []string{"BENCH_walks", "BENCH_obs", "BENCH_shard", "BENCH_cache", "experiments_output"}

// invocation is one command line a doc shows: where, the command, the words
// after it, and whether it is a markdown code span — a fragment in prose
// that may name a flag without its value — rather than a whole line.
type invocation struct {
	where, cmd string
	args       []string
	inline     bool
}

var (
	inlineCode = regexp.MustCompile("`[^`]+`")
	// operator splits a line into commands; a | with no space around it
	// separates replicas and is not a pipe.
	operator = regexp.MustCompile(`\s+(?:&&|\|\||\||&|\d?>>?)(?:\s+|$)|;\s*|\s#.*`)
	variable = regexp.MustCompile(`\$\(\([^)]*\)\)|\$\{?(\w+)\}?`)
	commands = map[string]bool{"teabench": true, "teaserve": true, "tearouter": true, "teawalk": true}
)

// invocations returns every command line of the four commands in text: a
// command whose first word is one of them, with any path or as go run
// ./cmd/<name>, in a script or workflow line or a markdown fence or code
// span. Lines continued with \ are joined, quotes dropped, $VAR takes the
// file's last VAR= or "for VAR in" value, and $((…)) reads as 1.
func invocations(doc, text string) []invocation {
	var out []invocation
	vars := map[string]string{"": "1"}
	scan := func(line, where string, inline bool) {
		line = strings.NewReplacer("'", "", `"`, "").Replace(line)
		for _, c := range operator.Split(line, -1) {
			words := strings.Fields(c)
			for len(words) > 0 && (words[0] == "do" || words[0] == "then" || words[0] == "run:") {
				words = words[1:]
			}
			if len(words) > 2 && words[0] == "go" && words[1] == "run" {
				words = words[2:]
			}
			switch {
			case len(words) > 3 && words[0] == "for" && words[2] == "in":
				vars[words[1]] = words[3]
			case len(words) == 1 && strings.Contains(words[0], "="):
				name, value, _ := strings.Cut(words[0], "=")
				vars[name] = value
			case len(words) > 0 && commands[filepath.Base(words[0])]:
				inv := invocation{where: where, cmd: filepath.Base(words[0]), inline: inline}
				for _, w := range words[1:] {
					inv.args = append(inv.args, variable.ReplaceAllStringFunc(w, func(v string) string {
						if val, ok := vars[variable.FindStringSubmatch(v)[1]]; ok {
							return val
						}
						return v
					}))
				}
				out = append(out, inv)
			}
		}
	}
	markdown, fenced, joined := strings.HasSuffix(doc, ".md"), false, ""
	for i, line := range strings.Split(text, "\n") {
		where := doc + ":" + strconv.Itoa(i+1)
		switch {
		case markdown && strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case markdown && !fenced:
			for _, span := range inlineCode.FindAllString(line, -1) {
				scan(strings.Trim(span, "`"), where, true)
			}
		case strings.HasSuffix(strings.TrimSpace(line), `\`):
			joined += strings.TrimSuffix(strings.TrimSpace(line), `\`) + " "
		default:
			scan(joined+line, where, false)
			joined = ""
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

// The docs, CI and the chaos drill may only show command lines that still
// work, and may not point back at the retired perf artifacts. A teabench
// line must name registered flags and experiments. A teaserve, tearouter or
// teawalk line runs through the command's own parsing, Validate included; a
// code span in prose only has to name registered flags.
func TestDocsShowOnlyLiveInvocations(t *testing.T) {
	bench := flag.NewFlagSet("teabench", flag.ContinueOnError)
	bench.SetOutput(io.Discard)
	registerFlags(bench)
	check := map[string]func(args []string) error{
		"teaserve": func(args []string) error { _, err := cli.Parse("teaserve", args, io.Discard, cli.Teaserve); return err },
		"tearouter": func(args []string) error {
			_, err := cli.Parse("tearouter", args, io.Discard, cli.Tearouter)
			return err
		},
		"teawalk": func(args []string) error { _, err := cli.Parse("teawalk", args, io.Discard, cli.Teawalk); return err },
	}
	found := map[string]int{}
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range retired {
			if strings.Contains(string(data), name) {
				t.Errorf("%s mentions the retired %s", doc, name)
			}
		}
		for _, inv := range invocations(doc, string(data)) {
			found[inv.cmd]++
			if inv.cmd == "teabench" {
				if problem := checkInvocation(bench, inv.args); problem != "" {
					t.Errorf("%s: teabench %s: %s", inv.where, strings.Join(inv.args, " "), problem)
				}
			} else if err := check[inv.cmd](inv.args); err != nil && (!inv.inline || strings.Contains(err.Error(), "not defined")) {
				t.Errorf("%s: %s %s: %v", inv.where, inv.cmd, strings.Join(inv.args, " "), err)
			}
		}
	}
	for cmd := range commands {
		if found[cmd] < 2 {
			t.Errorf("found %d %s invocations in the docs; the extraction is broken", found[cmd], cmd)
		}
	}
}
