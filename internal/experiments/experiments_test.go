package experiments

import (
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/gen"
)

// tiny returns a fast configuration for tests: one small but heavy-tailed
// dataset (the regime the paper's effects need: degrees well above TEA's
// trunk size) and walk volume high enough that sampling dominates
// preprocessing.
func tiny() Config {
	c := Quick()
	c.Profiles = []gen.Profile{{Name: "tiny", Vertices: 300, Edges: 15000, Skew: 0.85, Seed: 5}}
	c.WalksPerVertex = 40
	c.Length = 40
	return c
}

func TestTable4ShapeHolds(t *testing.T) {
	// Wall-clock assertions need decisive walk volume: at R=40 the TEA-vs-
	// GraphWalker margin on this tiny graph is ~1.5x, within scheduler noise
	// on a loaded single-CPU machine. R=120 makes the sampling phase
	// dominate preprocessing by an order of magnitude.
	cfg := tiny()
	cfg.WalksPerVertex = 120
	rows, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per algorithm)", len(rows))
	}
	algos := map[string]bool{}
	for _, r := range rows {
		algos[r.Algorithm] = true
		if r.TEA <= 0 || r.GraphWalker <= 0 || r.KnightKing <= 0 {
			t.Fatalf("non-positive runtime in %+v", r)
		}
	}
	for _, a := range []string{"linear", "exponential"} {
		if !algos[a] {
			t.Fatalf("missing algorithm %s", a)
		}
	}
	// The Table 4 headline on the dynamic-weight algorithms: TEA beats the
	// full-scan baseline.
	for _, r := range rows {
		if r.Algorithm == "exponential" && r.SpeedupGW < 1 {
			t.Errorf("exponential: TEA slower than GraphWalker (%.2fx)", r.SpeedupGW)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "GraphWalker") || !strings.Contains(out, "tiny") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestFig2CostOrdering(t *testing.T) {
	rows, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Figure 2's shape: TEA evaluates a handful of edges per step; both
	// baselines evaluate many more on exponential weights.
	if r.TEA <= 0 || r.TEA > 30 {
		t.Fatalf("TEA edges/step = %.1f, want small", r.TEA)
	}
	if r.GraphWalker < 3*r.TEA {
		t.Fatalf("GraphWalker %.1f not ≫ TEA %.1f", r.GraphWalker, r.TEA)
	}
	if r.KnightKing < r.TEA {
		t.Fatalf("KnightKing %.1f below TEA %.1f", r.KnightKing, r.TEA)
	}
	if s := RenderFig2(rows); !strings.Contains(s, "rejection") {
		t.Fatal("render missing header")
	}
}

func TestFig9MemoryOrdering(t *testing.T) {
	rows, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// TEA's HPAT index costs memory; the baselines keep only the graph.
	if !(r.TEA > r.GraphWalker && r.TEA > r.KnightKing) {
		t.Fatalf("memory ordering wrong: %+v", r)
	}
	if s := RenderFig9(rows); !strings.Contains(s, "MiB") {
		t.Fatal("render missing units")
	}
}

func TestFig10TEAWins(t *testing.T) {
	rows, err := Fig10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TEA <= 0 || r.KnightKing <= 0 || r.CTDNE <= 0 {
		t.Fatalf("non-positive runtimes: %+v", r)
	}
	// CTDNE (reference implementation) must be the slowest of the three.
	if r.CTDNE < r.TEA {
		t.Errorf("CTDNE %.2v faster than TEA %.2v", r.CTDNE, r.TEA)
	}
	if s := RenderFig10(rows); !strings.Contains(s, "K-1-node") {
		t.Fatal("render header")
	}
}

func TestFig11OptimizationsStack(t *testing.T) {
	// Enough walk volume that sampling dominates TEA's one-off
	// preprocessing, as at the paper's scale.
	cfg := tiny()
	rows, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HPAT <= 0 || r.HPATIndex <= 0 || r.GraphWalker <= 0 {
		t.Fatalf("non-positive: %+v", r)
	}
	// Full-scan baseline must lose to both HPAT variants.
	if r.GraphWalker < r.HPATIndex {
		t.Errorf("GraphWalker %v faster than HPAT+Index %v", r.GraphWalker, r.HPATIndex)
	}
	if s := RenderFig11(rows); !strings.Contains(s, "HPAT+Index") {
		t.Fatal("render header")
	}
}

func TestFig12MethodsAndOOM(t *testing.T) {
	cfg := tiny()
	rows, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 methods", len(rows))
	}
	methods := map[string]Fig12Row{}
	for _, r := range rows {
		methods[r.Method] = r
	}
	for _, m := range []string{"AliasMethod", "HPAT", "PAT", "ITS"} {
		if _, ok := methods[m]; !ok {
			t.Fatalf("missing method %s", m)
		}
	}
	// Memory ordering (Figure 12b): HPAT > PAT ≥ ITS (when alias fits, it
	// dwarfs everything).
	if !methods["AliasMethod"].OOM && methods["AliasMethod"].Memory < methods["HPAT"].Memory {
		t.Errorf("alias memory %d below HPAT %d", methods["AliasMethod"].Memory, methods["HPAT"].Memory)
	}
	if methods["HPAT"].Memory < methods["PAT"].Memory {
		t.Errorf("HPAT memory %d below PAT %d", methods["HPAT"].Memory, methods["PAT"].Memory)
	}
	if s := RenderFig12(rows); !strings.Contains(s, "HPAT") {
		t.Fatal("render")
	}
}

func TestFig13Scaling(t *testing.T) {
	cfg := tiny()
	a, err := Fig13aCandidateSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig13bHPATBuild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Fig13cAuxIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]Fig13ScalingRow{a, b, c} {
		if len(rows) != 1 || rows[0].SingleThread <= 0 {
			t.Fatalf("bad scaling rows: %+v", rows)
		}
	}
	if s := RenderFig13Scaling(a); !strings.Contains(s, "threads") {
		t.Fatal("render")
	}
}

func TestFig13dIncrementalSpeedup(t *testing.T) {
	rows, err := Fig13dIncremental(tiny(), []int{1, 100, 10_000}, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The Figure 13d shape: speedup grows with degree/batch; at degree ≫
	// batch the incremental path must win clearly.
	last := rows[len(rows)-1]
	if last.Degree != 10_000 || last.Speedup < 5 {
		t.Fatalf("degree-10k speedup %.1fx, want ≫1", last.Speedup)
	}
	if s := RenderFig13d(rows); !strings.Contains(s, "incremental") {
		t.Fatal("render")
	}
}

func TestFig13ePreprocessScaling(t *testing.T) {
	rows, err := Fig13ePreprocess(tiny(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Total <= 0 || rows[1].Total <= 0 {
		t.Fatalf("rows: %+v", rows)
	}
	if s := RenderFig13e(rows); !strings.Contains(s, "preprocessing") {
		t.Fatal("render")
	}
}

func TestFig14IOSeparation(t *testing.T) {
	// The out-of-core effect needs degrees well above the trunk size; use a
	// hub-dominated profile (the regime of the paper's datasets).
	cfg := tiny()
	cfg.Profiles = []gen.Profile{{Name: "hubby", Vertices: 100, Edges: 40000, Skew: 1.0, Seed: 6}}
	cfg.Length = 10
	rows, err := Fig14OutOfCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TEABytes <= 0 || r.GWBytes <= 0 {
		t.Fatalf("no I/O recorded: %+v", r)
	}
	// Figure 14b's shape: the baseline reads far more bytes.
	if r.GWBytes < 2*r.TEABytes {
		t.Errorf("I/O separation weak: GW %d vs TEA %d", r.GWBytes, r.TEABytes)
	}
	if r.GWIOTime <= r.TEAIOTime {
		t.Errorf("simulated device time ordering wrong: %+v", r)
	}
	if s := RenderFig14(rows); !strings.Contains(s, "I/O ratio") {
		t.Fatal("render")
	}
}

func TestSensitivityMonotone(t *testing.T) {
	rows, err := Sensitivity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if s := RenderSens(rows); !strings.Contains(s, "runtime") {
		t.Fatal("render")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if len(c.Profiles) != 4 || c.WalksPerVertex != 1 || c.Length != 80 ||
		c.Threads < 1 || c.Contrast != 50 || c.P != 0.5 || c.Q != 2 {
		t.Fatalf("normalized config: %+v", c)
	}
	if len(Default().Profiles) != 4 || len(Quick().Profiles) != 4 {
		t.Fatal("default profiles")
	}
}

func TestSystemString(t *testing.T) {
	for sys, want := range map[System]string{
		SysTEA: "TEA", SysTEANoIndex: "HPAT", SysTEAPAT: "PAT", SysTEAITS: "ITS",
		SysTEAAlias: "AliasMethod", SysGraphWalker: "GraphWalker",
		SysKnightKing: "KnightKing", SysCTDNE: "CTDNE", System(99): "System(99)",
	} {
		if sys.String() != want {
			t.Errorf("%d -> %q, want %q", int(sys), sys.String(), want)
		}
	}
}

func TestDistScaling(t *testing.T) {
	rows, err := DistScaling(tiny(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Steps != rows[1].Steps {
		t.Fatalf("partitioning changed work: %d vs %d steps", rows[0].Steps, rows[1].Steps)
	}
	if rows[0].Messages != 0 || rows[1].Messages == 0 {
		t.Fatalf("message accounting: %+v", rows)
	}
	// Without time locality ≈ (P-1)/P of moves cross workers, as under hashing.
	if f := rows[1].MessagesPerStep; f < 0.4 || f > 0.9 {
		t.Fatalf("msgs/step = %.2f, want ≈ 2/3", f)
	}
	if s := RenderDist(rows); !strings.Contains(s, "msgs/step") {
		t.Fatal("render")
	}
}

func TestAblationDegreeScaling(t *testing.T) {
	rows, err := AblationDegreeScaling(tiny(), []int{1 << 8, 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ITS <= 0 || r.PAT <= 0 || r.HPAT <= 0 || r.HPATNoIdx <= 0 {
			t.Fatalf("non-positive per-sample time: %+v", r)
		}
	}
	if s := RenderAblationDegree(rows); !strings.Contains(s, "ITS/sample") {
		t.Fatal("render")
	}
}

func TestAblationTrunkSize(t *testing.T) {
	rows, err := AblationTrunkSize(tiny(), 1<<10, []int{0, 4, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "sqrt(D)" || rows[0].TrunkSize != 32 {
		t.Fatalf("sqrt policy row: %+v", rows[0])
	}
	// Very large trunks must cost more per sample than the balanced policy.
	if rows[2].TrunkSize != 256 {
		t.Fatalf("explicit trunk row: %+v", rows[2])
	}
	if s := RenderAblationTrunk(rows); !strings.Contains(s, "sqrt(D)") {
		t.Fatal("render")
	}
}
