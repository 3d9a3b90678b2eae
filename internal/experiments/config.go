// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic dataset profiles: one driver per artifact,
// returning typed rows that cmd/teabench renders and EXPERIMENTS.md records.
//
// Index (see DESIGN.md §4 for the full mapping):
//
//	Fig2      – average sampling cost (edges/step)
//	Table4    – runtime & speedups, 3 algorithms × 3 systems
//	Fig9      – memory usage
//	Fig10     – TEA vs KnightKing-1-node vs CTDNE
//	Sens      – R/L parameter sensitivity (§5.2)
//	Fig11     – HPAT and auxiliary-index piecewise breakdown
//	Fig12     – sampling-method runtime & memory (alias OOM included)
//	Fig13a–e  – preprocessing: candidate search, HPAT build, aux index,
//	            incremental updates, thread scaling
//	Fig14     – out-of-core runtime & disk I/O
package experiments

import (
	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/par"
)

// Config parameterizes an experiment run.
type Config struct {
	// Profiles are the datasets; defaults to the four Table 3 profiles.
	Profiles []gen.Profile
	// WalksPerVertex is R (paper: 1) and Length is L (paper: 80).
	WalksPerVertex int
	Length         int
	// Threads bounds parallelism; <1 means GOMAXPROCS.
	Threads int
	// Seed drives every random choice.
	Seed uint64
	// Contrast calibrates the exponential decay: λ = Contrast / timespan
	// (50 reproduces the rejection-sampling collapse of Figure 2).
	Contrast float64
	// P and Q are the temporal node2vec parameters (paper: 0.5 and 2).
	P, Q float64
}

// Default returns the paper's evaluation settings over the scaled profiles.
//
// One deliberate calibration: the paper runs R=1 walks of L=80 on billion-
// edge streams whose walks touch roughly as many steps as the graph has
// edges. At 1/1000 scale with strictly increasing synthetic timestamps,
// temporal walks dead-end after a few steps, which would shrink the walking
// phase below the (included) preprocessing phase and hide every sampling
// effect. R=50 restores the paper's work ratio (walking ≈ 3-4× preprocessing,
// matching the 24% preprocessing share reported in §5.5); EXPERIMENTS.md
// discusses the calibration.
func defaultWalksPerVertex() int { return 50 }

// Default returns the calibrated full-scale configuration described above.
func Default() Config {
	return Config{
		Profiles:       gen.Profiles(),
		WalksPerVertex: defaultWalksPerVertex(),
		Length:         80,
		Threads:        par.Threads(0),
		Seed:           1,
		Contrast:       50,
		P:              0.5,
		Q:              2,
	}
}

// Quick returns a configuration over the 10×-smaller profiles, used by the
// repository benchmarks and CI.
func Quick() Config {
	c := Default()
	c.Profiles = gen.SmallProfiles()
	return c
}

func (c Config) normalized() Config {
	if len(c.Profiles) == 0 {
		c.Profiles = gen.Profiles()
	}
	if c.WalksPerVertex <= 0 {
		c.WalksPerVertex = 1
	}
	if c.Length <= 0 {
		c.Length = 80
	}
	c.Threads = par.Threads(c.Threads)
	if c.Contrast <= 0 {
		c.Contrast = 50
	}
	if c.P <= 0 {
		c.P = 0.5
	}
	if c.Q <= 0 {
		c.Q = 2
	}
	return c
}
