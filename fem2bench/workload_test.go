package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/command"
)

// streamBytes renders the whole stream — setup, warm-up and units —
// in its canonical wire encoding, for the determinism tests.
func (w *workload) streamBytes() ([]byte, error) {
	var out []byte
	add := func(c command.Command) error {
		b, err := command.MarshalCommand(c)
		if err != nil {
			return err
		}
		out = append(append(out, b...), '\n')
		return nil
	}
	for _, c := range append(append([]command.Command{}, w.setup...), w.warm...) {
		if err := add(c); err != nil {
			return nil, err
		}
	}
	for _, u := range w.units {
		for _, c := range u.cmds {
			if err := add(c); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func stream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.streamBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := stream(t, name, 1), stream(t, name, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if c := stream(t, name, 2); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := buildWorkload("warm-resolve", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// kind names a study job by its solve path.
func kind(s command.Solve) string {
	switch {
	case s.Substructures > 0:
		return "substructured"
	case s.Parallel > 0:
		return "parallel"
	case s.Precond != "":
		return "cg+" + string(s.Precond)
	}
	return "direct"
}

func TestEveryStudyHasTheFixedMix(t *testing.T) {
	for _, seed := range []int64{1, 2, heldOutSeed} {
		w, _ := buildWorkload(studyBatch, seed)
		if len(w.units)%studyJobs != 0 || w.study != studyJobs {
			t.Fatalf("%d units in studies of %d", len(w.units), w.study)
		}
		want := map[string]int{"direct": 8, "cg+ssor": 3, "parallel": 3, "substructured": 2}
		for lo := 0; lo < len(w.units); lo += studyJobs {
			got := map[string]int{}
			models := map[string]bool{}
			for _, u := range w.units[lo : lo+studyJobs] {
				sub, ok := u.cmds[0].(command.Submit)
				if !ok || len(u.cmds) != 1 {
					t.Fatalf("study unit %v is not one submit", u.cmds)
				}
				s := sub.Cmd.(command.Solve)
				got[kind(s)]++
				models[s.Model] = true
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || len(models) != studyModels {
				t.Fatalf("seed %d study %d: mix %v over %d models, want %v over %d",
					seed, lo/studyJobs, got, len(models), want, studyModels)
			}
		}
	}
}

func TestLoadSweepCoversEveryPairEachCycle(t *testing.T) {
	w, _ := buildWorkload(loadSweep, 7)
	pairs := loadSweepModels * loadSweepCases
	if len(w.units) != pairs*loadSweepCycles {
		t.Fatalf("%d units, want %d", len(w.units), pairs*loadSweepCycles)
	}
	for c := 0; c < loadSweepCycles; c++ {
		seen := map[string]bool{}
		for _, u := range w.units[c*pairs : (c+1)*pairs] {
			seen[u.cmds[0].String()] = true
		}
		if len(seen) != pairs {
			t.Fatalf("cycle %d covers %d of %d pairs", c, len(seen), pairs)
		}
	}
}

func TestDesignLoopNeverRepeatsADesign(t *testing.T) {
	w, _ := buildWorkload(designLoop, 3)
	seen := map[string]bool{}
	for i, u := range w.units {
		g := u.cmds[0].(command.GenerateGrid)
		if want := designSizes[i%len(designSizes)]; g.NX != want[0] || g.NY != want[1] {
			t.Fatalf("unit %d is %dx%d, want %dx%d", i, g.NX, g.NY, want[0], want[1])
		}
		key := fmt.Sprint(g.NX, g.NY, g.Seed)
		if seen[key] {
			t.Fatalf("unit %d repeats design %s", i, key)
		}
		seen[key] = true
	}
}

func TestReferenceChecksRetrievedDesign(t *testing.T) {
	w, _ := buildWorkload(designLoop, 5)
	w.units = w.units[:designNames]
	if err := reference(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	last := w.units[designNames-1]
	solved, retrieved := w.units[designNames-4].want[2], last.want[len(last.want)-1]
	if retrieved == nil || *retrieved != *solved {
		t.Fatalf("solve after retrieve expects %+v, the stored design's solve %+v", retrieved, solved)
	}
	// A wrong answer or a wrong dof fails the check.
	ok := &command.SolveResult{MaxDisp: solved.value, MaxDOF: solved.index}
	if err := check(solved, ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*command.SolveResult{
		{MaxDisp: solved.value * (1 + 1e-9), MaxDOF: solved.index},
		{MaxDisp: solved.value, MaxDOF: solved.index + 1},
	} {
		if check(solved, bad) == nil {
			t.Errorf("check accepted %+v against %+v", bad, solved)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 %v, want 2", got)
	}
	if got := quantile(append(xs, math.Inf(1)), 1); !math.IsInf(got, 1) {
		t.Errorf("a failed unit at the top gave %v, want +Inf", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile %v, want 0", got)
	}
}

func TestLeastStolen(t *testing.T) {
	stolen := func(pct int64) *round { return &round{host1: hostCPU{total: 100, steal: pct}} }
	rs := []*round{stolen(5), stolen(0), stolen(1), stolen(9)}
	if got := leastStolen(rs, 2); len(got) != 2 || got[0] != rs[1] || got[1] != rs[2] {
		t.Errorf("with two clean rounds needed, got %v", got)
	}
	if got := leastStolen(rs, 3); len(got) != 3 || got[0] != rs[1] || got[1] != rs[2] || got[2] != rs[0] {
		t.Errorf("with three rounds needed, got %v, want the three least stolen", got)
	}
}
