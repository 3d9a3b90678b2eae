package fault_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/netchaos"
	"github.com/tea-graph/tea/internal/vfs"
)

// named builds a fault whose Err carries name, so a check's result can be
// told apart by rule.
func named(name string, f fault.Fault) fault.Fault {
	f.Err = errors.New(name)
	return f
}

type call struct {
	op     fault.Op
	target string
	heal   bool // heal the plan instead of checking
}

func repeat(c call, n int) []call {
	calls := make([]call, n)
	for i := range calls {
		calls[i] = c
	}
	return calls
}

var (
	wr = call{op: fault.Write, target: "dir/wal-01.log"}
	rd = call{op: fault.Read, target: "10.0.0.3:9301"}
)

// TestPlanMatching pins the matching rules once for every adapter: each
// result character names the rule that fired, '-' that none did.
func TestPlanMatching(t *testing.T) {
	cases := []struct {
		name   string
		faults []fault.Fault
		calls  []call
		want   string
		fired  int
	}{
		{"first armed match wins",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write, Target: "wal-"}), named("B", fault.Fault{Op: fault.Write})},
			[]call{wr, {op: fault.Write, target: "dir/snapshot.1"}, wr}, "ABA", 3},
		{"op must match",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Sync})},
			[]call{wr, {op: fault.Sync, target: "dir"}}, "-A", 1},
		{"target is a substring",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Read, Target: ":9301"})},
			[]call{rd, {op: fault.Read, target: "10.0.0.4:9302"}, rd}, "A-A", 2},
		{"after skips matching ops",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write, After: 2})},
			repeat(wr, 4), "--AA", 2},
		{"after counts only matching ops",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write, Target: "wal-", After: 1})},
			[]call{{op: fault.Write, target: "x"}, wr, {op: fault.Write, target: "x"}, wr}, "---A", 1},
		{"once disarms and the next rule takes over",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write, Once: true}), named("B", fault.Fault{Op: fault.Write})},
			repeat(wr, 3), "ABB", 3},
		{"once after a skip",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write, After: 1, Once: true})},
			repeat(wr, 4), "-A--", 1},
		{"rate 0 fires every time",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Read})},
			repeat(rd, 8), "AAAAAAAA", 8},
		{"rate 1 fires every time",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Read, Rate: 1})},
			repeat(rd, 8), "AAAAAAAA", 8},
		{"rate 0.5 fires a seeded pattern",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Read, Rate: 0.5})},
			repeat(rd, 16), "--A-A---AA-AAAAA", 9},
		{"a lost coin falls through to the next rule",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Read, Rate: 0.5}), named("B", fault.Fault{Op: fault.Read})},
			repeat(rd, 16), "BBABABBBAABAAAAA", 16},
		{"heal disarms every fault",
			[]fault.Fault{named("A", fault.Fault{Op: fault.Write})},
			[]call{wr, {heal: true}, wr, wr}, "A--", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := fault.New(1, tc.faults...)
			var got strings.Builder
			for _, c := range tc.calls {
				if c.heal {
					p.Heal()
					continue
				}
				f, _ := p.Check(c.op, c.target, 0)
				if f == nil {
					got.WriteByte('-')
				} else {
					got.WriteString(f.Err.Error())
				}
			}
			if got.String() != tc.want {
				t.Errorf("fired %q, want %q", got.String(), tc.want)
			}
			if p.Fired() != tc.fired {
				t.Errorf("Fired() = %d, want %d", p.Fired(), tc.fired)
			}
		})
	}
}

// TestPlanDraws: Flip, Torn and Crash faults carry a seeded draw in [0, n)
// that replays for the same seed; other kinds draw nothing, so they leave the
// stream of later draws untouched.
func TestPlanDraws(t *testing.T) {
	draws := func(seed int64, kinds ...fault.Kind) []int {
		p := fault.New(seed)
		for _, k := range kinds {
			p.Inject(fault.Fault{Op: fault.Write, Kind: k, Once: true})
		}
		var out []int
		for range kinds {
			f, d := p.Check(fault.Write, "f", 1000)
			if f == nil {
				t.Fatal("armed fault did not fire")
			}
			if d < 0 || d >= 1000 {
				t.Fatalf("draw %d outside [0, 1000)", d)
			}
			out = append(out, d)
		}
		return out
	}
	a := draws(5, fault.Torn, fault.Flip, fault.Crash)
	if b := draws(5, fault.Torn, fault.Flip, fault.Crash); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different draws: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, draws(6, fault.Torn, fault.Flip, fault.Crash)) {
		t.Fatalf("seeds 5 and 6 drew the same %v", a)
	}
	got := draws(5, fault.Fail, fault.Torn, fault.Delay, fault.Stall, fault.Flip, fault.Crash)
	if want := []int{0, a[0], 0, 0, a[1], a[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("draws with drawless kinds interleaved = %v, want %v", got, want)
	}
}

// TestOnePlanOneDecisionStream hands one plan to a filesystem and a network
// adapter: the interleaved sequence of fired (op, target) pairs replays for
// the same seed, because every Rate coin comes from the plan's one stream.
func TestOnePlanOneDecisionStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	run := func(seed int64) []string {
		plan := fault.New(seed,
			fault.Fault{Op: fault.Write, Rate: 0.5},
			fault.Fault{Op: fault.Dial, Rate: 0.5})
		fsys := vfs.NewFaultFS(vfs.OS, plan)
		dial := netchaos.Dial(plan)
		dir := t.TempDir()
		var fired []string
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("f%d", i)
			f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("x")); err != nil {
				fired = append(fired, "write "+name)
			}
			f.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c, err := dial(ctx, "tcp", addr)
			cancel()
			if err != nil {
				fired = append(fired, "dial")
			} else {
				c.Close()
			}
		}
		if len(fired) != plan.Fired() {
			t.Fatalf("observed %d failures, plan fired %d", len(fired), plan.Fired())
		}
		return fired
	}
	a, b := run(3), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault sequence:\n%v\n%v", a, b)
	}
	var writes, dials int
	for _, s := range a {
		if s == "dial" {
			dials++
		} else {
			writes++
		}
	}
	if writes == 0 || dials == 0 || writes+dials == 24 {
		t.Fatalf("sequence %v does not interleave both adapters' coins", a)
	}
}
