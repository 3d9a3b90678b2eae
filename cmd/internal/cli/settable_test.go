package cli

import (
	"flag"
	"reflect"
	"testing"

	"github.com/tea-graph/tea/internal/apps"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/pat"
	"github.com/tea-graph/tea/internal/scrub"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/wal"
)

// settableValues is the inventory TestSettableValues counts: every exported
// field of the options structs below plus every flag of teaserve, tearouter
// and teawalk.
const settableValues = 132

// TestSettableValues fails when a change adds a settable value, a field of
// an options struct or a command-line flag, without recording it here. A
// value that only one caller sets belongs in a constant. The test lives with
// the flag tables because the module root may not import cmd/internal.
func TestSettableValues(t *testing.T) {
	total := 0
	for _, v := range []any{
		server.Config{}, trace.Config{}, wire.ClientConfig{}, stream.Config{},
		stream.DurableConfig{}, wal.Options{}, shard.Config{}, shard.Node2Vec{},
		shard.ClusterConfig{}, core.Options{}, core.WalkConfig{}, hpat.Config{},
		pat.Config{}, scrub.Config{}, ooc.CacheConfig{}, ooc.EngineOptions{},
		apps.PPRConfig{},
	} {
		typ := reflect.TypeOf(v)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%-22s %3d fields", typ.String(), n)
		total += n
	}
	for _, c := range []struct {
		name  string
		table func(*flag.FlagSet)
	}{
		{"teaserve", func(fs *flag.FlagSet) { Teaserve(fs) }},
		{"tearouter", func(fs *flag.FlagSet) { Tearouter(fs) }},
		{"teawalk", func(fs *flag.FlagSet) { Teawalk(fs) }},
	} {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.table(fs)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		t.Logf("%-22s %3d flags", c.name, n)
		total += n
	}
	if total > settableValues {
		t.Fatalf("%d settable values, %d recorded: make a value only one caller sets a constant, or record the new count", total, settableValues)
	}
	t.Logf("%d settable values (%d recorded)", total, settableValues)
}
