package main

import (
	"fmt"
	"math/rand"

	"repro/internal/command"
)

// A workload is one traffic mix: the commands that build its working
// set, the warm-up that fills the daemon's caches, and one round's
// measured stream of units.  Every field is a pure function of the
// seed, so a round replays byte for byte on any commit.
type workload struct {
	name string
	// store is the daemon's -store backend.
	store string
	// setup builds the working set; warm fills the caches.  Both run
	// before the first timed request and count towards setup_s.
	setup, warm []command.Command
	// units is the measured stream, perRound units a round.  Round r
	// runs window r of it, wrapping around (see round).  For
	// study-batch each unit is one job: a single Submit.
	units    []unit
	perRound int
	// study is the number of units submitted together before the
	// client waits for their notifications; 0 for closed loops.
	study int
}

// A unit is the benchmark's unit of work: the commands sent in order
// and what each reply must say.  want[i] is nil when command i has no
// numeric answer to check beyond succeeding.
type unit struct {
	cmds []command.Command
	want []*expect
}

// expect is a reference answer, computed in process before timing: a
// solve's largest displacement and its dof, or a stresses command's
// largest von Mises stress and its element, within relative tol.
type expect struct {
	value float64
	index int
	tol   float64
}

// Workload names, in the order BENCHMARK.json lists them.
const (
	loadSweep  = "load-sweep"
	designLoop = "design-loop"
	studyBatch = "study-batch"
)

var workloadNames = []string{loadSweep, designLoop, studyBatch}

// Round sizes.  Each round runs this many units on a fresh daemon, the
// same count on every commit, so memory and store growth compare at
// equal work.
const (
	loadSweepModels = 8
	loadSweepCases  = 4
	loadSweepCycles = 40 // 40 × 32 pairs = 1280 solves per round
	designLoopUnits = 96
	designNames     = 8
	studyModels     = 4
	studyJobs       = 16
	studiesPerRound = 40 // 640 jobs per round
	// studyWindows is how many distinct rounds of studies the stream
	// holds.  A job's latency depends on its place in its study's
	// seeded order, so rounds draw fresh orders instead of replaying
	// one round's 40.
	studyWindows = 16
)

// designSizes is the design-loop's size cycle: NX×NY cells.
var designSizes = [][2]int{{24, 18}, {32, 24}, {40, 30}}

// buildWorkload generates the named workload's stream from seed.
// References are filled in by reference.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case loadSweep:
		return buildLoadSweep(rng), nil
	case designLoop:
		return buildDesignLoop(rng), nil
	case studyBatch:
		return buildStudyBatch(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// round returns the units round r runs: window r of the stream.
func (w *workload) round(r int) []unit {
	off := (r * w.perRound) % len(w.units)
	return w.units[off : off+w.perRound]
}

// plate is a seeded, jittered, left-clamped plate of nx×ny unit cells.
func plate(rng *rand.Rand, name string, nx, ny int) command.GenerateGrid {
	return command.GenerateGrid{Name: name, NX: nx, NY: ny, W: float64(nx), H: float64(ny),
		ClampLeft: true, Jitter: 0.2, Seed: rng.Int63n(1 << 40)}
}

// endLoad is a seeded right-edge load: a pull of 200–1200 and a
// downward force of 500–2500.
func endLoad(rng *rand.Rand, model, set string) command.EndLoad {
	return command.EndLoad{Model: model, Set: set,
		FX: 200 + 1000*rng.Float64(), FY: -500 - 2000*rng.Float64()}
}

func buildLoadSweep(rng *rand.Rand) *workload {
	w := &workload{name: loadSweep, store: "mem"}
	for m := 0; m < loadSweepModels; m++ {
		name := fmt.Sprintf("ls%d", m)
		w.setup = append(w.setup, plate(rng, name, 16, 12))
		for k := 0; k < loadSweepCases; k++ {
			w.setup = append(w.setup, endLoad(rng, name, fmt.Sprintf("c%d", k)))
		}
		w.warm = append(w.warm, command.Solve{Model: name, Set: "c0"})
	}
	pairs := loadSweepModels * loadSweepCases
	w.perRound = pairs * loadSweepCycles
	for c := 0; c < loadSweepCycles; c++ {
		for _, p := range rng.Perm(pairs) {
			s := command.Solve{Model: fmt.Sprintf("ls%d", p/loadSweepCases),
				Set: fmt.Sprintf("c%d", p%loadSweepCases)}
			w.units = append(w.units, unit{cmds: []command.Command{s}})
		}
	}
	return w
}

func buildDesignLoop(rng *rand.Rand) *workload {
	w := &workload{name: designLoop, store: "file", perRound: designLoopUnits}
	// A warm-up design on a name the stream never uses loads the code
	// paths and the store once.
	g := plate(rng, "warm", 8, 6)
	w.setup = []command.Command{g, endLoad(rng, "warm", "load")}
	w.warm = []command.Command{command.Solve{Model: "warm", Set: "load"},
		command.Stresses{Model: "warm"}, command.Store{Model: "warm"}}
	for i := 0; i < designLoopUnits; i++ {
		size := designSizes[i%len(designSizes)]
		name := fmt.Sprintf("d%d", i%designNames)
		u := unit{cmds: []command.Command{
			plate(rng, name, size[0], size[1]),
			endLoad(rng, name, "load"),
			command.Solve{Model: name, Set: "load"},
			command.Stresses{Model: name},
			command.Store{Model: name},
		}}
		if i%designNames == designNames-1 {
			// Names rotate every 8 units, so the design stored 3 units
			// ago is still the one under its name.
			old := fmt.Sprintf("d%d", (i-3)%designNames)
			u.cmds = append(u.cmds, command.Retrieve{Name: old},
				command.Solve{Model: old, Set: "load"})
		}
		w.units = append(w.units, u)
	}
	return w
}

// studyPaths is one solve of each study job kind on model: direct,
// SSOR-preconditioned CG, CG on 8 simulated NAVM workers, and 4
// condensed substructures.
func studyPaths(model string) []command.Solve {
	return []command.Solve{
		{Model: model, Set: "load"},
		{Model: model, Set: "load", Method: "cg", Precond: "ssor"},
		{Model: model, Set: "load", Method: "cg", Parallel: 8},
		{Model: model, Set: "load", Substructures: 4},
	}
}

// studyMix counts each studyPaths kind in one study.
var studyMix = [4]int{8, 3, 3, 2}

// studyKinds lists one study's jobs before shuffling: the mix spread
// round-robin over the shared models, the same multiset every study.
func studyKinds() []command.Solve {
	var out []command.Solve
	j := 0
	for kind, n := range studyMix {
		for i := 0; i < n; i, j = i+1, j+1 {
			out = append(out, studyPaths(fmt.Sprintf("s%d", j%studyModels))[kind])
		}
	}
	return out
}

func buildStudyBatch(rng *rand.Rand) *workload {
	w := &workload{name: studyBatch, store: "file", study: studyJobs,
		perRound: studiesPerRound * studyJobs}
	for m := 0; m < studyModels; m++ {
		name := fmt.Sprintf("s%d", m)
		w.setup = append(w.setup, plate(rng, name, 16, 12), endLoad(rng, name, "load"))
	}
	// Warm every study model on every path once: the direct factor
	// lands in the scheduler's per-model cache, and the iterative,
	// simulated-machine and substructured code runs before timing.
	for m := 0; m < studyModels; m++ {
		for _, s := range studyPaths(fmt.Sprintf("s%d", m)) {
			w.warm = append(w.warm, command.Submit{Cmd: s})
		}
	}
	for st := 0; st < studiesPerRound*studyWindows; st++ {
		kinds := studyKinds()
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		for _, s := range kinds {
			w.units = append(w.units, unit{cmds: []command.Command{command.Submit{Cmd: s}}})
		}
	}
	return w
}
