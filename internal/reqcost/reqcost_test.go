package reqcost

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/tea-graph/tea/internal/stats"
)

func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	c.AddEngine(stats.Cost{Steps: 10})
	c.AddMigration(5, 280)
	c.CacheRead(true, 64)
	c.DeviceRead(4096)
	c.AddCost(Cost{Steps: 3})
	if got := c.Snapshot(); !reflect.DeepEqual(got, Cost{}) {
		t.Fatalf("nil collector snapshot = %+v, want zero", got)
	}
}

func TestCollectorAccumulates(t *testing.T) {
	ctx, c := Attach(context.Background())
	if From(ctx) != c {
		t.Fatal("From did not return the attached collector")
	}
	if !Active(ctx) {
		t.Fatal("Active false on attached context")
	}
	if Active(context.Background()) {
		t.Fatal("Active true on bare context")
	}
	c.AddEngine(stats.Cost{Steps: 100, EdgesEvaluated: 250, WalksStarted: 4, ReadRetries: 2})
	c.AddMigration(7, 500)
	c.AddMigration(3, 200)
	c.CacheRead(true, 64)
	c.CacheRead(false, 4096)
	c.DeviceRead(8192)
	snap := c.Snapshot()
	want := Cost{
		Steps: 100, EdgesEvaluated: 250, Walks: 4, ReadRetries: 2,
		Migrations: 10, Frames: 2, MigrationBytes: 700,
		CacheHits: 1, CacheMisses: 1, DeviceBytes: 4096 + 8192, ReadOps: 2,
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
}

func TestCollectorAddCost(t *testing.T) {
	a := Cost{Steps: 1, EdgesEvaluated: 2, Walks: 3, Migrations: 4, Frames: 5,
		MigrationBytes: 6, CacheHits: 7, CacheMisses: 8, DeviceBytes: 9, ReadOps: 10, ReadRetries: 11}
	var c Collector
	c.AddCost(a)
	c.AddCost(a)
	want := Cost{Steps: 2, EdgesEvaluated: 4, Walks: 6, Migrations: 8, Frames: 10,
		MigrationBytes: 12, CacheHits: 14, CacheMisses: 16, DeviceBytes: 18, ReadOps: 20, ReadRetries: 22}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AddCost snapshot = %+v, want %+v", got, want)
	}
}

func TestTopOrdersByWallTime(t *testing.T) {
	top := NewTop(8)
	for i := 0; i < 5; i++ {
		top.Record(Record{
			RequestID:  fmt.Sprintf("req-%d", i),
			Endpoint:   "walk",
			WallMicros: int64(i * 100),
			Cost:       Cost{Steps: int64(i)},
		})
	}
	got := top.Top(3)
	if len(got) != 3 {
		t.Fatalf("Top(3) returned %d records", len(got))
	}
	if got[0].RequestID != "req-4" || got[1].RequestID != "req-3" || got[2].RequestID != "req-2" {
		t.Fatalf("Top(3) order wrong: %v %v %v", got[0].RequestID, got[1].RequestID, got[2].RequestID)
	}
	if all := top.Top(0); len(all) != 5 {
		t.Fatalf("Top(0) returned %d records, want all 5", len(all))
	}
}

func TestTopEvictsOldest(t *testing.T) {
	top := NewTop(4)
	for i := 0; i < 10; i++ {
		top.Record(Record{RequestID: fmt.Sprintf("req-%d", i), WallMicros: int64(i)})
	}
	got := top.Top(0)
	if len(got) != 4 {
		t.Fatalf("ring retained %d records, want 4", len(got))
	}
	for _, r := range got {
		if r.WallMicros < 6 {
			t.Fatalf("evicted record %s still present", r.RequestID)
		}
	}
}

func TestNilTop(t *testing.T) {
	var top *Top
	top.Record(Record{RequestID: "x"})
	if got := top.Top(5); got != nil {
		t.Fatalf("nil Top returned %v", got)
	}
}

// TestTopConcurrentHammer drives writers and readers through the ring at
// once; run with -race this is the satellite's concurrency check for the
// top-K ring.
func TestTopConcurrentHammer(t *testing.T) {
	top := NewTop(64)
	var wg sync.WaitGroup
	const writers, readers, perWriter = 8, 4, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				top.Record(Record{
					RequestID:  fmt.Sprintf("w%d-%d", w, i),
					Endpoint:   "walk",
					WallMicros: int64(i),
					Cost:       Cost{Steps: int64(i)},
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				recs := top.Top(10)
				if len(recs) > 10 {
					t.Errorf("Top(10) returned %d records", len(recs))
					return
				}
				for j := 1; j < len(recs); j++ {
					if recs[j].WallMicros > recs[j-1].WallMicros {
						t.Errorf("Top order violated: %d after %d", recs[j].WallMicros, recs[j-1].WallMicros)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := top.Top(0); len(got) != 64 {
		t.Fatalf("after hammer ring holds %d records, want 64", len(got))
	}
}

// TestCollectorConcurrent exercises concurrent adds from walk workers and
// migration goroutines (run with -race).
func TestCollectorConcurrent(t *testing.T) {
	_, c := Attach(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.CacheRead(i%2 == 0, 128)
				c.AddMigration(1, 56)
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.CacheHits != 4000 || snap.CacheMisses != 4000 || snap.Migrations != 8000 || snap.Frames != 8000 {
		t.Fatalf("concurrent totals wrong: %+v", snap)
	}
}
