package fem

import (
	"context"
	"fmt"

	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/navm"
)

// SolveOpts selects and tunes the solution strategy for Solve — the one
// knob set for every way the paper solves a structure.  Exactly one
// execution path applies: Substructured > 0 partitions the model into
// that many vertical bands and condenses them (in parallel on RT when
// attached); otherwise Parallel > 0 runs the Backend's NAVM-distributed
// variant on that many simulated workers; otherwise the Backend runs
// sequentially through the linalg solver registry.
type SolveOpts struct {
	// Backend names the solver engine ("" selects the natural-order
	// envelope Cholesky baseline); see linalg.Backends for the registry.
	Backend string
	// Precond names the preconditioner for iterative backends ("" for
	// none); see linalg.Preconds.
	Precond string
	// Parallel, when positive, solves with the backend's distributed
	// variant on that many simulated workers (cg, jacobi, and sor have
	// one; the direct backends do not).  Requires RT.
	Parallel int
	// Substructured, when positive, partitions the model into that many
	// vertical bands and condenses them, in parallel when RT is
	// attached.
	Substructured int
	// Tol is the iterative relative-residual tolerance (0 = 1e-8).
	Tol float64
	// MaxIter bounds iterative solvers.  Zero selects the backend's
	// default budget (clamped to linalg.MaxIterCeiling); an explicit
	// value is used as given.
	MaxIter int
	// Omega is the SOR/SSOR relaxation factor (0 = 1.5).
	Omega float64
	// RT is the simulated machine's runtime; required for Parallel,
	// optional (cost attribution only) for Substructured.
	RT *navm.Runtime
	// OnIteration, when non-nil, traces iterative convergence.
	OnIteration func(iter int, resid float64)
}

// iterOpts lowers the solve options to the linalg layer.
func (o SolveOpts) iterOpts() linalg.IterOpts {
	return linalg.IterOpts{
		Tol: o.Tol, MaxIter: o.MaxIter, Omega: o.Omega,
		Precond: o.Precond, OnIteration: o.OnIteration,
	}
}

// backendName resolves the default backend name.
func (o SolveOpts) backendName() string {
	if o.Backend == "" {
		return linalg.BackendCholesky
	}
	return o.Backend
}

// Solution is a solved load case: full displacement vector and the
// unified solver accounting.
type Solution struct {
	// U is the full displacement vector (zeros at fixed dofs).
	U linalg.Vector
	// Backend is the engine that produced U ("substructured" paths echo
	// the interface solver's requested backend).
	Backend string
	// Precond is the preconditioner applied, "" when none.
	Precond string
	// Iterations is 0 for direct solves.
	Iterations int
	// Residual is the relative residual ‖b-Kx‖/‖b‖ of the reduced
	// system (0 where not measured, e.g. substructured solves).
	Residual float64
	// Stats accumulates assembly and solver flops.
	Stats linalg.Stats
	// Refactored reports whether a direct solve computed a fresh
	// factorisation; false when the model's factor cache served a warm
	// factor, in which case the solve cost one triangular solve and
	// Stats carries no factorisation flops.  Iterative and substructured
	// paths never factor a cached plan and always report true.
	Refactored bool
	// Par carries the simulated-machine statistics of a distributed
	// solve; nil for sequential and substructured paths.
	Par *navm.SolveStats
}

// Solve assembles the model and solves it for one load set as SolveOpts
// directs — the AUVM "solve structure model/load set for displacements"
// operation, unified over sequential, NAVM-parallel, and substructured
// execution.  All three paths honour ctx: a cancelled solve returns an
// error wrapping errs.ErrCancelled.  The sequential and NAVM-parallel
// paths assemble through the model's retained symbolic assembly once
// the model has been solved before (see Model.Factors).
func Solve(ctx context.Context, m *Model, ls *LoadSet, opts SolveOpts) (*Solution, error) {
	if opts.Substructured > 0 {
		// The condensation path performs its own direct solves, so the
		// backend name must still be a real one (usage error on every
		// route) and a preconditioner is rejected rather than silently
		// ignored — mirroring the direct backends.
		if _, err := linalg.Backend(opts.Backend); err != nil {
			return nil, err
		}
		if opts.Precond != "" && opts.Precond != "none" {
			return nil, errs.Usage("substructured solves condense directly and take no preconditioner (%q requested)", opts.Precond)
		}
		s, err := PartitionByX(m, opts.Substructured)
		if err != nil {
			return nil, err
		}
		sol, err := SolveSubstructured(ctx, m, s, ls, opts.RT)
		if err != nil {
			return nil, err
		}
		sol.Backend = opts.backendName()
		return sol, nil
	}
	// The model's retained workspace is not safe for concurrent use: a
	// solve that finds it busy assembles one-shot rather than wait (the
	// job scheduler's per-model lock never leaves it busy).  The lock is
	// held through the solve, because asm shares the workspace's values.
	var asm *Assembled
	var err error
	if m.sym.mu.TryLock() {
		defer m.sym.mu.Unlock()
		asm, err = m.assemble()
	} else {
		asm, err = Assemble(m)
	}
	if err != nil {
		return nil, err
	}
	return SolveAssembled(ctx, m, asm, ls, opts)
}

// SolveAssembled solves a pre-assembled system (several load sets can
// share one assembly) sequentially or NAVM-distributed as SolveOpts
// directs.  The substructured route is rejected rather than silently
// ignored: it condenses element blocks instead of solving a global
// assembly, so it only exists on Solve.
func SolveAssembled(ctx context.Context, m *Model, asm *Assembled, ls *LoadSet, opts SolveOpts) (*Solution, error) {
	if opts.Substructured > 0 {
		return nil, errs.Usage("SolveAssembled solves a pre-assembled global system; the substructured path condenses per-substructure blocks instead (use Solve)")
	}
	b, err := m.RHS(ls, asm.Index, len(asm.Free))
	if err != nil {
		return nil, err
	}
	if opts.Parallel > 0 {
		sol, err := solveParallel(ctx, asm, b, opts)
		if err != nil {
			return nil, err
		}
		sol.Refactored = true
		return sol, nil
	}
	// Direct backends route through the model's factor cache (or a
	// context-carried one — the job scheduler's per-model cache), so the
	// production pattern of many solves on one model factors once.
	if _, direct := linalg.PlanOptsFor(opts.backendName()); direct {
		return solveDirectCached(ctx, m, asm, b, opts)
	}
	solver, err := linalg.Backend(opts.Backend)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Refactored: true}
	sol.Stats.Merge(asm.Stats)
	x, info, err := solver.Solve(ctx, asm.K, b, opts.iterOpts())
	sol.Backend = info.Backend
	sol.Precond = info.Precond
	sol.Iterations = info.Iterations
	sol.Residual = info.Residual
	sol.Stats.Flops += info.Flops
	sol.Stats.Iterations += info.Iterations
	if err != nil {
		return nil, err
	}
	sol.U = asm.Expand(x)
	return sol, nil
}

// solveDirectCached is the sequential direct path: solve through a
// cached DirectPlan, factoring only when the assembled values changed
// since the factor was computed.  The cache is the context-carried one
// when present (the job scheduler threads its per-model cache through
// the job context so queued solves on one model share a factorisation,
// whichever session submitted them), the model's own otherwise.  A warm
// result is bit-identical to the cold solve the registry backend would
// have produced.
func solveDirectCached(ctx context.Context, m *Model, asm *Assembled, b linalg.Vector, opts SolveOpts) (*Solution, error) {
	name := opts.backendName()
	if err := linalg.RejectDirectPrecond(name, opts.Precond); err != nil {
		return nil, err
	}
	if err := linalg.CheckCancel(ctx, 1); err != nil {
		return nil, err
	}
	fc, ok := linalg.FactorCacheFromContext(ctx)
	if !ok {
		fc = m.Factors()
	}
	sol := &Solution{}
	sol.Stats.Merge(asm.Stats)
	st := &linalg.Stats{}
	x, refactored, err := fc.SolveCached(name, asm.K, b, st)
	if err != nil {
		return nil, err
	}
	info := linalg.DirectSolveInfo(name, asm.K, x, b, st)
	info.Refactored = refactored
	sol.Backend = info.Backend
	sol.Residual = info.Residual
	sol.Stats.Flops += info.Flops
	sol.Refactored = info.Refactored
	sol.U = asm.Expand(x)
	return sol, nil
}

// solveParallel routes a distributed solve to the backend's NAVM
// variant: cg (the default), jacobi, or multi-colour sor.
func solveParallel(ctx context.Context, asm *Assembled, b linalg.Vector, opts SolveOpts) (*Solution, error) {
	rt := opts.RT
	if rt == nil {
		return nil, fmt.Errorf("fem: parallel solve needs an attached runtime (no parallel machine)")
	}
	backend := opts.Backend
	if backend == "" {
		backend = linalg.BackendCG
	}
	if opts.Precond != "" && opts.Precond != "none" {
		return nil, errs.Usage("distributed %s has no preconditioned variant (%q requested)",
			backend, opts.Precond)
	}
	d, err := navm.Partition(asm.K, b, opts.Parallel)
	if err != nil {
		return nil, err
	}
	// Zero-value fields pass through: each distributed solver applies
	// the same linalg.IterDefaults as its sequential backend.
	iopts := opts.iterOpts()
	iopts.Precond = "" // rejected above; the distributed variants have none
	var x linalg.Vector
	var stats navm.SolveStats
	switch backend {
	case linalg.BackendCG:
		x, stats, err = rt.ParallelCG(ctx, d, iopts)
	case linalg.BackendJacobi:
		x, stats, err = rt.ParallelJacobi(ctx, d, iopts)
	case linalg.BackendSOR:
		x, stats, err = rt.ParallelMultiColorSOR(ctx, d, linalg.GreedyColoring(asm.K), iopts)
	default:
		return nil, errs.Usage("backend %q has no distributed variant (try cg, jacobi, or sor)", backend)
	}
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Backend:    backend,
		Iterations: stats.Iterations,
		Residual:   stats.ResidualNorm,
		Par:        &stats,
	}
	sol.Stats.Merge(asm.Stats)
	sol.Stats.Flops += stats.Flops
	sol.Stats.Iterations += stats.Iterations
	sol.U = asm.Expand(x)
	return sol, nil
}

// Stresses recovers per-element stress components from a solution — the
// AUVM "calculate stresses" operation.
func Stresses(m *Model, sol *Solution) ([][]float64, error) {
	out := make([][]float64, len(m.Elements))
	for i, e := range m.Elements {
		s, err := e.Stress(m, sol.U)
		if err != nil {
			return nil, fmt.Errorf("fem: stress of element %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Reactions computes the constrained-dof reaction forces K_full·u at the
// fixed dofs (useful for equilibrium checks: reactions balance applied
// loads).
func Reactions(m *Model, sol *Solution) (map[int]float64, error) {
	reac := map[int]float64{}
	for ei, e := range m.Elements {
		ke, err := e.Stiffness(m)
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", ei, err)
		}
		dofs := ElementDOFs(e)
		for i, gi := range dofs {
			if !m.Fixed(gi) {
				continue
			}
			var f float64
			for j, gj := range dofs {
				f += ke.At(i, j) * sol.U[gj]
			}
			reac[gi] += f
		}
	}
	return reac, nil
}
