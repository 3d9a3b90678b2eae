package cli

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/server"
)

// Every refused teaserve combination exits 2 before anything loads: each row
// carries -input /nonexistent, so a row refused only by the load exits 1.
func TestTeaserveRefusesBeforeLoad(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-wal-dir d -ooc", "-ooc"},
		{"-shard-peers a:1,b:1", "-shard-id"},
		{"-fsync always", "-wal-dir"},
		{"-snapshot-every 5", "-wal-dir"},
		{"-ooc-store s", "-ooc"},
		{"-ooc-cache-bytes 1", "-ooc"},
		{"-ooc-cache-policy clock", "-ooc"},
		{"-chaos drop:peer=a:1", "-shard-id"},
		{"-shard-hedge auto", "-shard-id"},
		{"-shard-replica 1", "-shard-id"},
		{"-chaos-seed 3 -ooc", "-ooc"},
		{"-scrub-interval 1s", "-scrub-interval"},
		{"-scrub-rate-mbps 8 -shard-id 0 -shard-peers a:1", "-scrub-rate-mbps"},
		{"-shard-id 2 -shard-peers a:1,b:1", "-shard-id"},
		{"-shard-id 0 -shard-peers a:1,b:1 -shard-replica 1", "-shard-replica"},
		{"-shard-id 0 -shard-peers a:1,b:1 -shard-hedge soon", "-shard-hedge"},
		{"-shard-id 0 -shard-peers a:1,b:1 -chaos explode", "-chaos"},
		{"-shard-id 0 -shard-peers a:1,,b:1", "-shard-peers"},
		{"-shard-id 0 -shard-peers a:1 -algo node2vec", "-algo"},
		{"-ooc -ooc-cache-policy fifo", "-ooc-cache-policy"},
		{"-algo node2vec -p 0", "-p"},
		{"-algo node2vec -q -1", "-q"},
		{"-algo walkies", "-algo"},
		{"-ooc-trunk 8", "-ooc-trunk"},
		{"-wal-warn-ratio 2", "-wal-warn-ratio"},
		{"-profile wikipedia", "-profile"},
		{"stray", "stray"},
	} {
		var stderr bytes.Buffer
		args := append([]string{"-input", "/nonexistent"}, strings.Fields(tc.args)...)
		if code := Main("teaserve", args, &stderr, Teaserve); code != 2 {
			t.Errorf("teaserve %s: exit %d, want 2 (%s)", tc.args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.names) {
			t.Errorf("teaserve %s: message %q does not name %s", tc.args, stderr.String(), tc.names)
		}
	}
}

// Each accepted teaserve command line selects the expected section.
func TestTeaserveSelectsMode(t *testing.T) {
	for _, tc := range []struct{ args, mode string }{
		{"-input g.teag", "engine"},
		{"-input g.teag -algo node2vec -p 0.5 -q 2 -pprof -instance x", "engine"},
		{"-input g.teag -ooc", "engine-ooc"},
		{"-input g.teag -ooc -ooc-store s -ooc-cache-bytes 0 -ooc-cache-policy clock -scrub-interval 0", "engine-ooc"},
		{"-wal-dir d", "durable"},
		{"-wal-dir d -fsync interval -fsync-interval 5ms -snapshot-every 0 -scrub-rate-mbps 8 -algo uniform", "durable"},
		{"-input g.teag -shard-id 0 -shard-peers a:1|a:2,b:1 -shard-replica 1", "shard"},
		{"-input g.teag -shard-id 0 -shard-peers a:1,b:1 -shard-hedge 5ms -chaos partition:peer=b:1,after=2 -chaos-seed 7", "shard"},
	} {
		d, err := Parse("teaserve", strings.Fields(tc.args), io.Discard, Teaserve)
		if err != nil {
			t.Errorf("teaserve %s: %v", tc.args, err)
			continue
		}
		if got := modeOf(d); got != tc.mode {
			t.Errorf("teaserve %s: mode %s, want %s", tc.args, got, tc.mode)
		}
	}
}

// modeOf names the section a deployment selected.
func modeOf(d server.Deployment) string {
	switch {
	case d.Engine != nil && d.Engine.OutOfCore:
		return "engine-ooc"
	case d.Engine != nil:
		return "engine"
	case d.Durable != nil:
		return "durable"
	case d.Shard != nil:
		return "shard"
	case d.Router != nil:
		return "router"
	}
	return "none"
}

func TestTearouter(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"", "-shards"},
		{"-shards a,,b", "-shards"},
		{"-shards a -input g.teag", "-input"},
		{"-shards a stray", "stray"},
	} {
		var stderr bytes.Buffer
		if code := Main("tearouter", strings.Fields(tc.args), &stderr, Tearouter); code != 2 {
			t.Errorf("tearouter %s: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.names) {
			t.Errorf("tearouter %s: message %q does not name %s", tc.args, stderr.String(), tc.names)
		}
	}
	d, err := Parse("tearouter", strings.Fields("-shards h0:8080|h0b:8080,http://h1:8080/ -retry-after 3s"), io.Discard, Tearouter)
	if err != nil || modeOf(d) != "router" || d.RetryAfter.Seconds() != 3 || d.MaxInFlight != 256 {
		t.Fatalf("router deployment %+v, %v", d, err)
	}
}

// teawalk's flag errors are found before the graph loads.
func TestTeawalkRefusesBeforeLoad(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-algo node2vec -p 0", "-p"},
		{"-algo node2vec -q 0", "-q"},
		{"-algo walkies", "-algo"},
		{"-method alias", "-method"},
	} {
		_, err := Parse("teawalk", append(strings.Fields(tc.args), "-input", "/nonexistent"), io.Discard, Teawalk)
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("teawalk %s: %v, want an error naming %s", tc.args, err, tc.names)
		}
	}
	w, err := Parse("teawalk", strings.Fields("-input /nonexistent -algo node2vec -method its -seed 9"), io.Discard, Teawalk)
	if err != nil || w.Config.Seed != 9 || w.Config.Length != 80 || w.From != -1 {
		t.Fatalf("teawalk run %+v, %v", w, err)
	}
}
