package linalg

import (
	"fmt"
	"math"
)

// Envelope is a symmetric positive-definite matrix in lower envelope
// (skyline) storage: row i keeps the contiguous run of columns
// first[i]..i, where first[i] is the row's first structural non-zero.
// It is the storage of every direct factorisation in the repository —
// DirectPlan's global systems and substructure condensation's interior
// blocks.  Each row pays for its own profile rather than the worst
// row's bandwidth, so irregular meshes stop subsidising their widest
// row.  Cholesky fill is confined to the envelope (a row's first
// non-zero never moves left during factorisation), so the factor lives
// in the same storage the matrix does.
type Envelope struct {
	N int
	// first[i] is the first stored column of row i (first[i] <= i).
	first []int
	// last[j] is the last row whose run reaches column j (last[j] >= j)
	// — the extent of column j of the factor, walked by the backward
	// sweep.
	last []int
	// ptr[i] is the offset of row i's run in env; the run is
	// env[ptr[i] : ptr[i+1]], ordered by column, diagonal last.
	ptr []int
	env []float64
}

// NewEnvelope returns a zero matrix of order len(first) with the given
// row profile.  first[i] must lie in [0, i]; the matrix keeps first, so
// the caller must not modify it afterwards.
func NewEnvelope(first []int) *Envelope {
	n := len(first)
	e := &Envelope{N: n, first: first, last: make([]int, n), ptr: make([]int, n+1)}
	for i, f := range e.first {
		if f < 0 || f > i {
			panic(fmt.Errorf("%w: envelope row %d starts at %d", ErrDimension, i, f))
		}
		e.ptr[i+1] = e.ptr[i] + (i - f + 1)
		// Row i reaches every column from f on: record it at f, then a
		// running maximum carries it across f..i.
		if i > e.last[f] {
			e.last[f] = i
		}
	}
	for j := 1; j < n; j++ {
		if e.last[j-1] > e.last[j] {
			e.last[j] = e.last[j-1]
		}
	}
	e.env = make([]float64, e.ptr[n])
	return e
}

// NNZ returns the number of stored entries (the envelope profile size,
// lower triangle including the diagonal).
func (e *Envelope) NNZ() int { return len(e.env) }

// index returns the flat offset of element (i,j), i >= j, in env.
// Outside the envelope it panics: the profile is fixed at construction.
func (e *Envelope) index(i, j int) int {
	if j < e.first[i] {
		panic(fmt.Errorf("linalg: Envelope (%d,%d) outside profile (row starts at %d)", i, j, e.first[i]))
	}
	return e.ptr[i] + j - e.first[i]
}

// At returns element (i,j), exploiting symmetry; outside the envelope
// it is 0.
func (e *Envelope) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if j < e.first[i] {
		return 0
	}
	return e.env[e.ptr[i]+j-e.first[i]]
}

// Set assigns element (i,j) (and by symmetry (j,i)).
func (e *Envelope) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	e.env[e.index(i, j)] = v
}

// AddAt adds v to element (i,j) (and by symmetry (j,i)); the assembly
// primitive.
func (e *Envelope) AddAt(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	e.env[e.index(i, j)] += v
}

// CholeskyFactorInPlace overwrites the stored values with the Cholesky
// factor L (the matrix equals L·Lᵀ).  It fails if the matrix is not
// positive definite.  Flop counts are recorded in st.  The inner sums
// run over exactly the columns both rows store, ascending; the terms a
// dense (or uniformly banded) Cholesky would add are products with
// exact zeros, so the factor agrees with DenseChol's bitwise.
func (e *Envelope) CholeskyFactorInPlace(st *Stats) error {
	var flops int64
	for i := 0; i < e.N; i++ {
		fi := e.first[i]
		base := e.ptr[i]
		for j := fi; j < i; j++ {
			s := e.env[base+j-fi]
			fj := e.first[j]
			klo := fi
			if fj > klo {
				klo = fj
			}
			rj := e.ptr[j] - fj
			ri := base - fi
			for k := klo; k < j; k++ {
				s -= e.env[ri+k] * e.env[rj+k]
				flops += 2
			}
			e.env[base+j-fi] = s / e.env[e.ptr[j+1]-1]
			flops++
		}
		// Diagonal pivot.
		s := e.env[e.ptr[i+1]-1]
		for k := base; k < e.ptr[i+1]-1; k++ {
			v := e.env[k]
			s -= v * v
			flops += 2
		}
		if s <= 0 {
			st.addFlops(flops)
			return fmt.Errorf("linalg: matrix not positive definite at row %d (pivot %g)", i, s)
		}
		e.env[e.ptr[i+1]-1] = math.Sqrt(s)
		flops++
	}
	st.addFlops(flops)
	return nil
}

// CholeskySolveInto solves L·Lᵀ·x = rhs given the factor from
// CholeskyFactorInPlace, writing into out (allocated when nil; may
// alias rhs to solve in place).  Both sweeps are row-oriented: each
// unknown is one ascending sum, in DenseChol's order, so the solution
// agrees with DenseChol's bitwise.  (A column-oriented backward sweep
// reads the row-stored factor contiguously but sums in another order,
// moving the answers' last bits.)
func (e *Envelope) CholeskySolveInto(rhs, out Vector, st *Stats) Vector {
	if len(rhs) != e.N {
		panic(fmt.Errorf("%w: Envelope.CholeskySolveInto order %d with rhs %d", ErrDimension, e.N, len(rhs)))
	}
	y := out
	if y == nil {
		y = NewVector(e.N)
	}
	if len(y) != e.N {
		panic(fmt.Errorf("%w: Envelope.CholeskySolveInto order %d into %d", ErrDimension, e.N, len(y)))
	}
	if e.N > 0 && &y[0] != &rhs[0] {
		copy(y, rhs)
	}
	first, last, ptr, env := e.first, e.last, e.ptr, e.env
	// Forward: L·y = rhs.
	for i := 0; i < e.N; i++ {
		fi := first[i]
		row := env[ptr[i]:ptr[i+1]]
		s := y[i]
		for k, v := range row[:len(row)-1] {
			s -= v * y[fi+k]
		}
		y[i] = s / row[len(row)-1]
	}
	// Backward: Lᵀ·x = y.  Row i of Lᵀ is column i of L, stored in the
	// rows k = i+1..last[i] whose runs reach column i.
	for i := e.N - 1; i >= 0; i-- {
		s := y[i]
		lo, hi := i+1, last[i]+1
		rows, ys := ptr[lo:hi], y[lo:hi]
		for d, fk := range first[lo:hi] {
			if fk <= i {
				s -= env[rows[d]+i-fk] * ys[d]
			}
		}
		y[i] = s / env[ptr[i+1]-1]
	}
	// Each sweep spends a multiply-add per off-diagonal entry and a
	// divide per row.
	st.addFlops(int64(4*(len(env)-e.N) + 2*e.N))
	return y
}

// CholeskySolveMatrix solves A·X = C column by column given the factor
// from CholeskyFactorInPlace, reusing one column buffer across all
// right-hand sides.  Substructure condensation solves each interior
// block against one right-hand side per boundary dof.
func (e *Envelope) CholeskySolveMatrix(c *Dense, st *Stats) *Dense {
	if c.Rows != e.N {
		panic(fmt.Errorf("%w: Envelope.CholeskySolveMatrix order %d with %d rows", ErrDimension, e.N, c.Rows))
	}
	out := NewDense(e.N, c.Cols)
	col := NewVector(e.N)
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < e.N; i++ {
			col[i] = c.At(i, j)
		}
		e.CholeskySolveInto(col, col, st)
		for i := 0; i < e.N; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}
