// The factor-once layer of the direct solvers: a DirectPlan separates
// the symbolic work of an envelope Cholesky solve — ordering,
// profile discovery, storage allocation — from the numeric work of
// factoring and back-substituting, exactly as Pattern does for
// assembly.  The paper's production workload is many solves of one
// topology (load steps, experiment table rows, queues of jobs on one
// model), so the expensive state is computed once per topology, numeric
// refactorisation is in-place and allocation-free, and a warm repeat
// solve costs one triangular solve instead of a factorisation.
package linalg

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/errs"
	"repro/internal/obs"
)

// Factorization is a reusable direct factorisation of a sparse SPD
// system: solve any number of right-hand sides against the current
// factor, and re-factor in place when the matrix values change.
type Factorization interface {
	// N returns the system order.
	N() int
	// Refactor re-factors from a's values in place.  a must have the
	// sparsity pattern the factorisation was planned for.
	Refactor(a *CSR, st *Stats) error
	// SolveInto solves A·x = rhs into out (allocated when nil; may
	// alias rhs), returning out.
	SolveInto(rhs, out Vector, st *Stats) (Vector, error)
	// SolveMatrixInto solves A·X = C column by column into out
	// (allocated when nil), returning out.
	SolveMatrixInto(c, out *Dense, st *Stats) (*Dense, error)
}

// Ordering selects the row/column ordering a DirectPlan factors under.
type Ordering int

const (
	// OrderNatural keeps the mesh numbering.
	OrderNatural Ordering = iota
	// OrderRCM renumbers by reverse Cuthill–McKee to shrink the profile.
	OrderRCM
)

// PlanOpts selects a DirectPlan's ordering.  The zero value is the
// natural-order baseline.  The factor storage is always the envelope.
type PlanOpts struct {
	Ordering Ordering
}

// DirectPlan is the symbolic state of a direct solve, computed once per
// sparsity pattern: the permutation, the envelope profile, the
// preallocated factor storage, a scatter map from CSR values into that
// storage, and the permute scratch.  Refactor and SolveInto are the
// numeric phase: both are allocation-free in steady state, and a warm
// SolveInto against an unchanged factor is bit-identical to the solve
// performed right after the factorisation.  A plan's methods are not
// safe for concurrent use (FactorCache adds the locking).
type DirectPlan struct {
	n   int
	nnz int
	// rowPtr and colIdx are the sparsity pattern the plan was built
	// from (shared with the source CSR, immutable); Refactor checks
	// incoming matrices against them — equal order and nnz are not
	// enough, a different pattern would scatter through the wrong map.
	rowPtr, colIdx []int
	// perm[new] = old and inv[old] = new; nil for the natural order.
	perm, inv []int
	// scatter[k] is the flat index in the storage value array that CSR
	// value k lands on, -1 for strictly upper-triangle entries.
	scatter []int32
	env     *Envelope
	// px is the permute scratch; cols is the SolveMatrixInto column
	// scratch, grown on first use.
	px       Vector
	cols     Vector
	factored bool
}

var _ Factorization = (*DirectPlan)(nil)

// NewDirectPlan runs the symbolic phase over a's sparsity pattern:
// ordering, profile, storage, and scatter map.  No values are read —
// call Refactor before the first solve.
func NewDirectPlan(a *CSR, opts PlanOpts) (*DirectPlan, error) {
	if a.N < 0 {
		return nil, fmt.Errorf("%w: NewDirectPlan order %d", ErrDimension, a.N)
	}
	p := &DirectPlan{
		n: a.N, nnz: a.NNZ(),
		rowPtr: a.RowPtr, colIdx: a.ColIdx,
		px: NewVector(a.N),
	}
	if opts.Ordering == OrderRCM {
		p.perm = RCM(a)
		p.inv = make([]int, a.N)
		for newI, oldI := range p.perm {
			p.inv[oldI] = newI
		}
	}
	newIdx := func(i int) int {
		if p.inv == nil {
			return i
		}
		return p.inv[i]
	}
	first := make([]int, a.N)
	for i := range first {
		first[i] = i
	}
	for i := 0; i < a.N; i++ {
		pi := newIdx(i)
		for _, j := range a.RowColumns(i) {
			if pj := newIdx(j); pj < first[pi] {
				first[pi] = pj
			}
		}
	}
	p.env = NewEnvelope(first)
	// Scatter map: lower-triangle CSR values to flat storage indices.
	p.scatter = make([]int32, p.nnz)
	for i := 0; i < a.N; i++ {
		pi := newIdx(i)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			pj := newIdx(a.ColIdx[k])
			if pj > pi {
				p.scatter[k] = -1
				continue
			}
			p.scatter[k] = int32(p.env.index(pi, pj))
		}
	}
	return p, nil
}

// N returns the system order.
func (p *DirectPlan) N() int { return p.n }

// ProfileNNZ returns the stored lower-triangle entry count of the
// factor's envelope (skyline) profile — the storage the factorisation
// pays for.
func (p *DirectPlan) ProfileNNZ() int { return p.env.NNZ() }

// MatchesPattern reports whether a has exactly the sparsity pattern the
// plan was built from.  Patterns built from one linalg.Pattern share
// backing arrays, so the common case is two pointer comparisons; the
// fallback compares element-wise.
func (p *DirectPlan) MatchesPattern(a *CSR) bool {
	if a.N != p.n || a.NNZ() != p.nnz {
		return false
	}
	if sameInts(a.RowPtr, p.rowPtr) && sameInts(a.ColIdx, p.colIdx) {
		return true
	}
	for i, v := range p.rowPtr {
		if a.RowPtr[i] != v {
			return false
		}
	}
	for i, v := range p.colIdx {
		if a.ColIdx[i] != v {
			return false
		}
	}
	return true
}

// sameInts reports whether two equal-length slices share storage.
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Refactor scatters a's values into the plan's storage and factors in
// place — the numeric phase, allocation-free in steady state.  a must
// match the planned pattern exactly; a matrix with the same order and
// nnz but a different pattern is rejected rather than mis-scattered.
// On a factorisation failure (matrix not positive definite) the plan is
// left unfactored.
func (p *DirectPlan) Refactor(a *CSR, st *Stats) error {
	if !p.MatchesPattern(a) {
		return fmt.Errorf("%w: Refactor order %d/%d nnz against plan %d/%d (or mismatched sparsity pattern)",
			ErrDimension, a.N, a.NNZ(), p.n, p.nnz)
	}
	p.factored = false
	vals := p.env.env
	for i := range vals {
		vals[i] = 0
	}
	for k, t := range p.scatter {
		if t >= 0 {
			vals[t] = a.Val[k]
		}
	}
	if err := p.env.CholeskyFactorInPlace(st); err != nil {
		return err
	}
	p.factored = true
	return nil
}

// ErrNotFactored reports a solve against a plan whose Refactor has not
// (successfully) run.
var ErrNotFactored = fmt.Errorf("linalg: plan not factored (call Refactor first)")

// SolveInto solves against the current factor into out (allocated when
// nil; may alias rhs).  With the plan's scratch warm it allocates
// nothing, and its result is bit-identical to the solve performed right
// after Refactor — the differential guarantee the factor caches rely
// on.
func (p *DirectPlan) SolveInto(rhs, out Vector, st *Stats) (Vector, error) {
	if !p.factored {
		return nil, ErrNotFactored
	}
	if len(rhs) != p.n {
		return nil, fmt.Errorf("%w: SolveInto order %d with rhs %d", ErrDimension, p.n, len(rhs))
	}
	if out == nil {
		out = NewVector(p.n)
	}
	if len(out) != p.n {
		return nil, fmt.Errorf("%w: SolveInto order %d into %d", ErrDimension, p.n, len(out))
	}
	if p.perm == nil {
		p.env.CholeskySolveInto(rhs, out, st)
		return out, nil
	}
	for i, oldI := range p.perm {
		p.px[i] = rhs[oldI]
	}
	p.env.CholeskySolveInto(p.px, p.px, st)
	for i, oldI := range p.perm {
		out[oldI] = p.px[i]
	}
	return out, nil
}

// SolveMatrixInto solves A·X = C column by column into out (allocated
// when nil), reusing one column scratch across right-hand sides —
// condensation-style multi-RHS solves against a retained factor.
func (p *DirectPlan) SolveMatrixInto(c, out *Dense, st *Stats) (*Dense, error) {
	if !p.factored {
		return nil, ErrNotFactored
	}
	if c.Rows != p.n {
		return nil, fmt.Errorf("%w: SolveMatrixInto order %d with %d rows", ErrDimension, p.n, c.Rows)
	}
	if out == nil {
		out = NewDense(p.n, c.Cols)
	}
	if out.Rows != p.n || out.Cols != c.Cols {
		return nil, fmt.Errorf("%w: SolveMatrixInto %dx%d into %dx%d",
			ErrDimension, p.n, c.Cols, out.Rows, out.Cols)
	}
	if p.cols == nil {
		p.cols = NewVector(p.n)
	}
	col := p.cols
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < p.n; i++ {
			col[i] = c.At(i, j)
		}
		if _, err := p.SolveInto(col, col, st); err != nil {
			return nil, err
		}
		for i := 0; i < p.n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out, nil
}

// PlanOptsFor maps a direct backend's registry name onto its plan
// configuration; ok is false for iterative backends (and unknown
// names), which have nothing to cache.
func PlanOptsFor(backend string) (PlanOpts, bool) {
	switch backend {
	case "", BackendCholesky:
		return PlanOpts{}, true
	case BackendCholeskyRCM, BackendCholeskyEnv:
		return PlanOpts{Ordering: OrderRCM}, true
	default:
		return PlanOpts{}, false
	}
}

// FactorCache retains one DirectPlan per direct backend for a model's
// system, so repeated solves of an unchanged matrix reuse the factor
// and solves after a value change refactor in place instead of
// replanning.  A cached hit requires the incoming values to be
// bit-identical to the values the factor was computed from — the cache
// never trades correctness for reuse, so callers that mutate a model
// behind its back still get exact answers (at refactor cost).  All
// methods are safe for concurrent use; solves on one cache serialize,
// which is the per-model serialization the job layer already imposes.
type FactorCache struct {
	mu sync.Mutex
	// gen counts refactorisations — the cache's generation, bumped every
	// time a solve could not reuse the current factor.
	gen     uint64
	entries map[string]*factorEntry

	// Shared observability counters (Instrument): warm solves, plan
	// misses, and refactorisations.  Nil no-op sinks by default, so an
	// uninstrumented cache pays one nil check per solve.
	hits, misses, refactors *obs.Counter
}

// Instrument routes the cache's hit/miss/refactor counts into shared
// counters — the scheduler points every per-model cache at the system
// registry's factor.* family.  Any argument may be nil.
func (fc *FactorCache) Instrument(hits, misses, refactors *obs.Counter) {
	fc.mu.Lock()
	fc.hits, fc.misses, fc.refactors = hits, misses, refactors
	fc.mu.Unlock()
}

// factorEntry is one backend's cached plan plus the exact values the
// current factor was computed from.
type factorEntry struct {
	plan *DirectPlan
	vals []float64
}

// Generation returns the number of factorisations the cache has
// performed — tests assert a changed model bumps it and an unchanged
// one does not.
func (fc *FactorCache) Generation() uint64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.gen
}

// Invalidate drops every cached factor; the next solve per backend
// replans and refactors.
func (fc *FactorCache) Invalidate() {
	fc.mu.Lock()
	fc.entries = nil
	fc.mu.Unlock()
}

// SolveCached solves A·x = b through backend's cached plan, factoring
// only when it must: a missing or pattern-mismatched entry replans, a
// value change refactors in place, and unchanged values ride the warm
// factor (refactored reports which happened).  Warm results are
// bit-identical to the solve performed when the factor was computed.
// st receives the factor flops only when a factorisation ran, so flop
// accounting shows the factor-once win.
func (fc *FactorCache) SolveCached(backend string, a *CSR, b Vector, st *Stats) (x Vector, refactored bool, err error) {
	po, ok := PlanOptsFor(backend)
	if !ok {
		return nil, false, errs.Usage("backend %q has no direct factorisation to cache", backend)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.entries == nil {
		fc.entries = map[string]*factorEntry{}
	}
	e := fc.entries[backend]
	if e == nil || !e.plan.MatchesPattern(a) {
		fc.misses.Inc()
		plan, perr := NewDirectPlan(a, po)
		if perr != nil {
			return nil, false, perr
		}
		e = &factorEntry{plan: plan}
		fc.entries[backend] = e
	}
	if !e.plan.factored || !valuesEqual(e.vals, a.Val) {
		fc.refactors.Inc()
		if err := e.plan.Refactor(a, st); err != nil {
			return nil, true, err
		}
		if len(e.vals) != len(a.Val) {
			e.vals = make([]float64, len(a.Val))
		}
		copy(e.vals, a.Val)
		fc.gen++
		refactored = true
	} else {
		fc.hits.Inc()
	}
	x, err = e.plan.SolveInto(b, nil, st)
	return x, refactored, err
}

// valuesEqual reports bitwise equality of two value arrays (NaN-free by
// construction; a NaN-bearing matrix fails factorisation either way).
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// factorCtxKey keys the context-carried factor cache.
type factorCtxKey struct{}

// NewFactorCacheContext returns a context carrying fc; the fem solve
// path prefers a context-carried cache over the model's own, which is
// how the job scheduler makes N queued solves on one model share a
// single factorisation.
func NewFactorCacheContext(ctx context.Context, fc *FactorCache) context.Context {
	return context.WithValue(ctx, factorCtxKey{}, fc)
}

// FactorCacheFromContext returns the context-carried factor cache, if
// any.
func FactorCacheFromContext(ctx context.Context) (*FactorCache, bool) {
	fc, ok := ctx.Value(factorCtxKey{}).(*FactorCache)
	return fc, ok
}
