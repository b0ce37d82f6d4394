package linalg

import (
	"context"
	"math"
	"testing"
)

// shuffled returns the poisson fixture under a structured interleave —
// the bad numbering an ad-hoc mesh generator produces, where per-row
// profiles vary and the envelope should beat the uniform band.
func shuffled(t *testing.T, m *CSR) *CSR {
	t.Helper()
	n := m.N
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			perm[i] = i / 2
		} else {
			perm[i] = (n+1)/2 + i/2
		}
	}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// denseCholSolve is the reference direct solve: DenseChol over the
// dense expansion.  Its sums run in the envelope kernel's order (the
// extra terms are products with exact zeros), so envelope solutions
// match it bitwise.
func denseCholSolve(m *CSR, b Vector, st *Stats) (Vector, error) {
	c, err := CholeskyDense(m.ToDense(), st)
	if err != nil {
		return nil, err
	}
	return c.Solve(b, st), nil
}

func rhsFor(m *CSR) Vector {
	b := NewVector(m.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	return b
}

// TestDirectPlanMatchesBaselines pins the plan paths bit for bit to the
// answers of the uniform-band baselines they replaced, through the
// DenseChol reference that sums in the same order: natural order
// against a dense solve, and RCM against the explicit
// Permute/solve/Unpermute pipeline the pre-plan SolveCholeskyRCM ran.
func TestDirectPlanMatchesBaselines(t *testing.T) {
	m := poisson2D(9)
	b := rhsFor(m)

	t.Run("natural-band", func(t *testing.T) {
		stRef := &Stats{}
		ref, err := denseCholSolve(m, b, stRef)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewDirectPlan(m, PlanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		st := &Stats{}
		if err := plan.Refactor(m, st); err != nil {
			t.Fatal(err)
		}
		x, err := plan.SolveInto(b, nil, st)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("plan solution differs at %d: %v vs %v", i, x[i], ref[i])
			}
		}
		if st.Flops == 0 || st.Flops >= stRef.Flops {
			t.Errorf("plan flops %d, want fewer than the dense reference's %d", st.Flops, stRef.Flops)
		}
	})

	t.Run("rcm-band", func(t *testing.T) {
		// The historical pipeline, spelled out.
		perm := RCM(m)
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		px, err := denseCholSolve(pm, PermuteVector(b, perm), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := UnpermuteVector(px, perm)
		x, err := SolveCholeskyRCM(m, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("plan RCM solution differs at %d: %v vs %v", i, x[i], ref[i])
			}
		}
	})
}

// TestEnvelopeAgreesWithBand checks the skyline path against the
// uniform-band arithmetic on regular and badly numbered systems: the
// envelope profile never exceeds the band's n·(bw+1) entries, and factor
// and solution equal DenseChol's bitwise (DenseChol sums in the band
// kernel's order; the terms the envelope skips are exact zeros).
func TestEnvelopeAgreesWithBand(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *CSR
	}{
		{"poisson", poisson2D(9)},
		{"poisson-shuffled", shuffled(t, poisson2D(9))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := rhsFor(tc.m)
			env, err := NewDirectPlan(tc.m, PlanOpts{Ordering: OrderRCM})
			if err != nil {
				t.Fatal(err)
			}
			if err := env.Refactor(tc.m, nil); err != nil {
				t.Fatal(err)
			}
			perm := RCM(tc.m)
			pm, err := tc.m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			if band := pm.N * (pm.Bandwidth() + 1); env.ProfileNNZ() > band {
				t.Errorf("envelope nnz %d exceeds band nnz %d", env.ProfileNNZ(), band)
			}
			ref, err := CholeskyDense(pm.ToDense(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.m.N; i++ {
				for j := 0; j <= i; j++ {
					if rv, ev := ref.l.At(i, j), env.env.At(i, j); rv != ev {
						t.Fatalf("factor differs at (%d,%d): reference %v env %v", i, j, rv, ev)
					}
				}
			}
			xe, err := env.SolveInto(b, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			xr := UnpermuteVector(ref.Solve(PermuteVector(b, perm), nil), perm)
			for i := range xr {
				if xe[i] != xr[i] {
					t.Fatalf("envelope solution differs at %d: %v vs reference %v", i, xe[i], xr[i])
				}
			}
		})
	}
}

// TestDirectPlanWarmBitIdentical is the differential guarantee the
// factor caches rely on: a warm repeat solve, and a solve after an
// in-place Refactor from unchanged values, are bit-identical to the
// cold solve.
func TestDirectPlanWarmBitIdentical(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	for _, po := range []PlanOpts{
		{},
		{Ordering: OrderRCM},
	} {
		plan, err := NewDirectPlan(m, po)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Refactor(m, nil); err != nil {
			t.Fatal(err)
		}
		cold, err := plan.SolveInto(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewVector(m.N)
		if _, err := plan.SolveInto(b, warm, nil); err != nil {
			t.Fatal(err)
		}
		if err := plan.Refactor(m, nil); err != nil {
			t.Fatal(err)
		}
		refac, err := plan.SolveInto(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if warm[i] != cold[i] || refac[i] != cold[i] {
				t.Fatalf("opts %+v: warm/refactor solve differs at %d", po, i)
			}
		}
	}
}

// TestDirectPlanRefactorTracksValues checks a Refactor after a value
// change matches a from-scratch solve of the new matrix bit for bit.
func TestDirectPlanRefactorTracksValues(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	plan, err := NewDirectPlan(m, PlanOpts{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(b, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Same pattern, new values.
	m2 := &CSR{N: m.N, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: append([]float64(nil), m.Val...)}
	for i := range m2.Val {
		m2.Val[i] *= 2.5
	}
	if err := plan.Refactor(m2, nil); err != nil {
		t.Fatal(err)
	}
	got, err := plan.SolveInto(b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveCholeskyRCM(m2, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refactored solve differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestDirectPlanWarmAllocationFree pins the steady-state contract: with
// the plan warm, Refactor plus SolveInto into a caller buffer allocates
// nothing, under both orderings — the regression behind the old
// pipeline's 631 allocs per cholesky-rcm solve.
func TestDirectPlanWarmAllocationFree(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	for _, tc := range []struct {
		name string
		po   PlanOpts
	}{
		{"env-natural", PlanOpts{}},
		{"env-rcm", PlanOpts{Ordering: OrderRCM}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewDirectPlan(m, tc.po)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Refactor(m, nil); err != nil {
				t.Fatal(err)
			}
			out := NewVector(m.N)
			st := &Stats{}
			if avg := testing.AllocsPerRun(20, func() {
				if _, err := plan.SolveInto(b, out, st); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("warm SolveInto: %.1f allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := plan.Refactor(m, st); err != nil {
					t.Fatal(err)
				}
				if _, err := plan.SolveInto(b, out, st); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("warm Refactor+SolveInto: %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// TestDirectPlanSolveMatrix checks the multi-RHS path against repeated
// single solves.
func TestDirectPlanSolveMatrix(t *testing.T) {
	m := poisson2D(6)
	plan, err := NewDirectPlan(m, PlanOpts{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	const cols = 3
	c := NewDense(m.N, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < m.N; i++ {
			c.Set(i, j, float64((i+j)%5)-2)
		}
	}
	x, err := plan.SolveMatrixInto(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		col := NewVector(m.N)
		for i := 0; i < m.N; i++ {
			col[i] = c.At(i, j)
		}
		want, err := plan.SolveInto(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.N; i++ {
			if x.At(i, j) != want[i] {
				t.Fatalf("matrix solve col %d differs at %d", j, i)
			}
		}
	}
}

// TestDirectPlanErrors covers the state and dimension guards.
func TestDirectPlanErrors(t *testing.T) {
	m := poisson2D(5)
	plan, err := NewDirectPlan(m, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(NewVector(m.N), nil, nil); err == nil {
		t.Error("SolveInto before Refactor succeeded")
	}
	other := poisson2D(6)
	if err := plan.Refactor(other, nil); err == nil {
		t.Error("Refactor with mismatched pattern succeeded")
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(NewVector(3), nil, nil); err == nil {
		t.Error("SolveInto with short rhs succeeded")
	}
}

// TestFactorCacheSolveCached covers the cache protocol: cold plan build,
// warm reuse on identical values, in-place refactor on changed values,
// generation accounting, and Invalidate.
func TestFactorCacheSolveCached(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	fc := &FactorCache{}
	x1, refac, err := fc.SolveCached(BackendCholeskyRCM, m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("first solve did not refactor")
	}
	if g := fc.Generation(); g != 1 {
		t.Errorf("generation after cold solve = %d, want 1", g)
	}
	x2, refac, err := fc.SolveCached(BackendCholeskyRCM, m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if refac {
		t.Error("repeat solve refactored despite unchanged values")
	}
	if g := fc.Generation(); g != 1 {
		t.Errorf("generation after warm solve = %d, want 1", g)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("warm cached solve differs at %d", i)
		}
	}
	// Changed values: must refactor and match a cold solve of the new
	// system exactly.
	m.Val[0] *= 3
	want, err := SolveCholeskyRCM(m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	x3, refac, err := fc.SolveCached(BackendCholeskyRCM, m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("solve after value change did not refactor")
	}
	if g := fc.Generation(); g != 2 {
		t.Errorf("generation after value change = %d, want 2", g)
	}
	for i := range want {
		if x3[i] != want[i] {
			t.Fatalf("cached solve after value change differs at %d", i)
		}
	}
	// Invalidate forces a refactor even with unchanged values.
	fc.Invalidate()
	if _, refac, err = fc.SolveCached(BackendCholeskyRCM, m, b, nil); err != nil {
		t.Fatal(err)
	} else if !refac {
		t.Error("solve after Invalidate did not refactor")
	}
	// Iterative backends have nothing to cache.
	if _, _, err := fc.SolveCached(BackendCG, m, b, nil); err == nil {
		t.Error("SolveCached accepted an iterative backend")
	}
}

// TestCholeskyEnvBackend checks the alias backend end to end:
// selectable by name, bit-identical to cholesky-rcm (whose plan it
// runs), rejects preconditioners, and honours cancellation.
func TestCholeskyEnvBackend(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	s, err := Backend(BackendCholeskyEnv)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveCholeskyRCM(m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, info, err := s.Solve(context.Background(), m, b, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, ref); d != 0 {
		t.Errorf("cholesky-env differs from cholesky-rcm by %g", d)
	}
	if !info.Direct || !info.Refactored || info.Backend != BackendCholeskyEnv {
		t.Errorf("info = %+v", info)
	}
	if info.Residual > 1e-10 || math.IsNaN(info.Residual) {
		t.Errorf("residual = %g", info.Residual)
	}
	if _, _, err := s.Solve(context.Background(), m, b, IterOpts{Precond: "jacobi"}); err == nil {
		t.Error("cholesky-env accepted a preconditioner")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Solve(ctx, m, b, IterOpts{}); err == nil {
		t.Error("cholesky-env ignored a cancelled context")
	}
}

// TestSolveCholeskyRCMColdAllocs guards the satellite: the one-shot RCM
// pipeline no longer materialises a permuted CSR from triplets, so its
// cold allocation count is a small constant (the old pipeline paid 631
// allocs on the bench plate).
func TestSolveCholeskyRCMColdAllocs(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	avg := testing.AllocsPerRun(10, func() {
		if _, err := SolveCholeskyRCM(m, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 40 {
		t.Errorf("cold SolveCholeskyRCM: %.0f allocs/op, want a small constant (<= 40)", avg)
	}
}

// TestFactorCacheRejectsPatternImpostor pins the review finding: two
// SPD systems with identical order and nnz but different sparsity
// patterns must not share a plan — the scatter map belongs to the
// pattern, and reusing it would silently mis-place values.
func TestFactorCacheRejectsPatternImpostor(t *testing.T) {
	mk := func(i, j int) *CSR {
		ts := []Triplet{{0, 0, 4}, {1, 1, 4}, {2, 2, 4}, {Row: i, Col: j, Val: 1}, {Row: j, Col: i, Val: 1}}
		m, err := NewCSRFromTriplets(3, ts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a1, a2 := mk(0, 1), mk(1, 2)
	if a1.NNZ() != a2.NNZ() {
		t.Fatalf("fixtures differ in nnz: %d vs %d", a1.NNZ(), a2.NNZ())
	}
	b := Vector{1, 2, 3}
	fc := &FactorCache{}
	if _, _, err := fc.SolveCached(BackendCholesky, a1, b, nil); err != nil {
		t.Fatal(err)
	}
	x, refac, err := fc.SolveCached(BackendCholesky, a2, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("pattern change did not rebuild the plan")
	}
	want, err := denseCholSolve(a2, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d != 0 {
		t.Errorf("impostor-pattern solve off by %g", d)
	}
	// The plan itself refuses a mismatched pattern outright.
	plan, err := NewDirectPlan(a1, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(a2, nil); err == nil {
		t.Error("Refactor accepted a matrix with a different pattern")
	}
}
