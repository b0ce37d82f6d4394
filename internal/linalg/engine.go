// The solver engine API: every way of solving K·x = b — direct or
// iterative, preconditioned or not — is a Solver registered under a
// backend name, solved through one context-aware entry point, and
// reported through one Info.  The fem layer, the REPL's solve verb, and
// the experiment harness all route through this registry, so a new
// backend registered here is immediately selectable by name everywhere
// and appears in the paper's comparison tables without further wiring —
// the point of evaluating alternative solution strategies under one
// harness.

package linalg

import (
	"context"
	"sort"
	"sync"

	"repro/internal/errs"
)

// Info is the unified accounting of one completed (or abandoned) solve:
// which engine ran, how hard it worked, and how good the answer is.
type Info struct {
	// Backend is the registry name of the solver that ran.
	Backend string
	// Precond is the preconditioner name, "" when none applied.
	Precond string
	// Iterations counts solver iterations; 0 for direct solves.
	Iterations int
	// Residual is the relative residual ‖b-Ax‖/‖b‖ of the returned
	// solution (measured after the fact for direct solves).
	Residual float64
	// Flops counts the floating point work of the solve.
	Flops int64
	// Direct reports whether the backend factorises rather than
	// iterates.
	Direct bool
	// Refactored reports whether a direct solve computed a fresh
	// factorisation (always true for the stateless registry backends);
	// false when a factor cache served the solve from a warm factor.
	// Meaningless for iterative backends.
	Refactored bool
}

// Solver is one solution engine for symmetric positive definite sparse
// systems.  Solve honours ctx (long solves return errs.ErrCancelled once
// the context is done), applies opts where meaningful (direct backends
// ignore tolerances and reject preconditioners), and always reports Info
// — on success, on cancellation, and on convergence failure alike.
type Solver interface {
	// Name is the backend's registry name.
	Name() string
	// Solve computes x with A·x = b.
	Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error)
}

// The built-in backend names.
const (
	// BackendCholesky is sequential envelope (skyline) Cholesky in the
	// mesh's natural numbering — the 1980s production baseline.
	BackendCholesky = "cholesky"
	// BackendCholeskyRCM is envelope Cholesky after reverse
	// Cuthill–McKee profile reduction — the full 1980s direct-solve
	// pipeline.
	BackendCholeskyRCM = "cholesky-rcm"
	// BackendCholeskyEnv is an alias of BackendCholeskyRCM, kept because
	// the name is REPL and wire syntax and an experiment-table row.
	BackendCholeskyEnv = "cholesky-env"
	// BackendCG is (optionally preconditioned) conjugate gradients.
	BackendCG = "cg"
	// BackendJacobi is Jacobi iteration.
	BackendJacobi = "jacobi"
	// BackendSOR is successive over-relaxation.
	BackendSOR = "sor"
)

var (
	backendMu  sync.RWMutex
	backendReg = map[string]Solver{}
)

// RegisterSolver installs a backend in the registry under its Name.  It
// panics on a duplicate name: backend names are API surface (REPL syntax,
// experiment table rows), so a silent replacement would be a bug.
func RegisterSolver(s Solver) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendReg[s.Name()]; dup {
		panic("linalg: duplicate solver backend " + s.Name())
	}
	backendReg[s.Name()] = s
}

// Backend looks up a registered solver by name; the empty name selects
// the Cholesky baseline.  Unknown names are a usage error listing the
// registry.
func Backend(name string) (Solver, error) {
	if name == "" {
		name = BackendCholesky
	}
	backendMu.RLock()
	s, ok := backendReg[name]
	backendMu.RUnlock()
	if !ok {
		return nil, errs.Usage("unknown solver backend %q (have %v)", name, Backends())
	}
	return s, nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]string, 0, len(backendReg))
	for name := range backendReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasBackend reports whether name is a registered backend ("" selects
// the default and is always valid).
func HasBackend(name string) bool {
	if name == "" {
		return true
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	_, ok := backendReg[name]
	return ok
}

func init() {
	RegisterSolver(choleskySolver{name: BackendCholesky})
	RegisterSolver(choleskySolver{name: BackendCholeskyRCM, opts: PlanOpts{Ordering: OrderRCM}})
	RegisterSolver(choleskySolver{name: BackendCholeskyEnv, opts: PlanOpts{Ordering: OrderRCM}})
	RegisterSolver(cgSolver{})
	RegisterSolver(jacobiSolver{})
	RegisterSolver(sorSolver{})
}

// iterWorkPool recycles iterative-kernel workspaces across Solve calls.
// The registry's backends are stateless shared singletons, so the scratch
// vectors live here instead: a steady-state solve allocates only its
// returned solution, and concurrent solves each draw their own workspace.
var iterWorkPool = sync.Pool{New: func() any { return new(IterWork) }}

// RejectDirectPrecond is the direct solvers' guard: a preconditioner
// only means something to an iterative method.  The fem layer's cached
// direct path shares it so both routes reject with one message.
func RejectDirectPrecond(backend, precond string) error {
	if precond != "" && precond != "none" {
		return errs.Usage("backend %q is direct and takes no preconditioner (%q requested)",
			backend, precond)
	}
	return nil
}

// rejectPrecond adapts RejectDirectPrecond to IterOpts.
func rejectPrecond(backend string, opts IterOpts) error {
	return RejectDirectPrecond(backend, opts.Precond)
}

// DirectSolveInfo measures the residual of a direct solve and assembles
// its Info.  The verification SpMV is measured with a throwaway Stats
// so Info.Flops reports the factorisation work alone — keeping the
// experiment tables' direct-solve cost figures comparable with the
// pre-registry measurements.  The fem layer's cached path builds its
// Info through the same helper so cold and warm solves report alike.
func DirectSolveInfo(backend string, a *CSR, x, b Vector, st *Stats) Info {
	verify := &Stats{}
	resid := Residual(a, x, b, verify)
	if bnorm := Norm2(b, verify); bnorm > 0 {
		resid /= bnorm
	}
	return Info{Backend: backend, Residual: resid, Flops: st.Flops, Direct: true}
}

// choleskySolver is the direct backend family: envelope Cholesky under
// natural or RCM ordering, selected by its PlanOpts.  Each
// Solve is a one-shot DirectPlan — the registry backends are stateless;
// the factor caches above this layer are what make solves warm.
type choleskySolver struct {
	name string
	opts PlanOpts
}

// Name returns the registry name.
func (s choleskySolver) Name() string { return s.name }

// Solve factorises and back-substitutes.  A direct solve is one
// indivisible step, so ctx is honoured only before the factorisation.
func (s choleskySolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	if err := rejectPrecond(s.name, opts); err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	if err := CheckCancel(ctx, 1); err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	st := &Stats{}
	plan, err := NewDirectPlan(a, s.opts)
	if err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	if err := plan.Refactor(a, st); err != nil {
		return nil, Info{Backend: s.name, Flops: st.Flops, Direct: true, Refactored: true}, err
	}
	x, err := plan.SolveInto(b, nil, st)
	if err != nil {
		return nil, Info{Backend: s.name, Flops: st.Flops, Direct: true, Refactored: true}, err
	}
	info := DirectSolveInfo(s.name, a, x, b, st)
	info.Refactored = true
	return x, info, nil
}

// IterDefaults fills the zero-value fields of opts for an iterative
// method of order n: the shared 1e-8 tolerance, an iterFactor·n
// iteration budget (floored at 200 and clamped to MaxIterCeiling), and
// ω=1.5.  Explicitly set fields pass through unchanged — including an
// out-of-range Omega, which the SOR kernels reject.  The sequential
// backends and the NAVM distributed solvers share it, so both paths of
// one method always default to the same budget.
func IterDefaults(opts IterOpts, n, iterFactor int) IterOpts {
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = clampIter(iterFactor * n)
	}
	if opts.Omega == 0 {
		opts.Omega = 1.5
	}
	return opts
}

// cgSolver is the conjugate gradient backend; opts.Precond selects a
// preconditioner from the preconditioner registry.
type cgSolver struct{}

// Name returns the registry name.
func (cgSolver) Name() string { return BackendCG }

// Solve runs (preconditioned) CG.
func (cgSolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	opts = IterDefaults(opts, a.N, 10)
	m, err := NewPreconditioner(opts.Precond, a, opts.Omega)
	if err != nil {
		return nil, Info{Backend: BackendCG}, err
	}
	info := Info{Backend: BackendCG}
	if m != nil {
		info.Precond = m.Name()
	}
	st := &Stats{}
	ws := iterWorkPool.Get().(*IterWork)
	defer iterWorkPool.Put(ws)
	x, iters, resid, err := cg(ctx, a, b, m, opts, st, ws)
	info.Iterations = iters
	info.Residual = resid
	info.Flops = st.Flops
	return x, info, err
}

// jacobiSolver is the Jacobi iteration backend.
type jacobiSolver struct{}

// Name returns the registry name.
func (jacobiSolver) Name() string { return BackendJacobi }

// Solve runs Jacobi iteration (budget 200·n: the method converges slowly
// but every update is independent).
func (jacobiSolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	if err := rejectPrecond(BackendJacobi, opts); err != nil {
		return nil, Info{Backend: BackendJacobi}, err
	}
	opts = IterDefaults(opts, a.N, 200)
	st := &Stats{}
	ws := iterWorkPool.Get().(*IterWork)
	defer iterWorkPool.Put(ws)
	x, iters, resid, err := jacobi(ctx, a, b, opts, st, ws)
	return x, Info{Backend: BackendJacobi, Iterations: iters, Residual: resid, Flops: st.Flops}, err
}

// sorSolver is the successive over-relaxation backend.
type sorSolver struct{}

// Name returns the registry name.
func (sorSolver) Name() string { return BackendSOR }

// Solve runs SOR with opts.Omega (budget 100·n).
func (sorSolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	if err := rejectPrecond(BackendSOR, opts); err != nil {
		return nil, Info{Backend: BackendSOR}, err
	}
	opts = IterDefaults(opts, a.N, 100)
	st := &Stats{}
	ws := iterWorkPool.Get().(*IterWork)
	defer iterWorkPool.Put(ws)
	x, iters, resid, err := sor(ctx, a, b, opts, st, ws)
	return x, Info{Backend: BackendSOR, Iterations: iters, Residual: resid, Flops: st.Flops}, err
}
