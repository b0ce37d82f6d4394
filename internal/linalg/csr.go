package linalg

import (
	"fmt"
	"sort"
)

// Triplet is one (row, col, value) contribution to a sparse matrix under
// assembly.  Finite element assembly produces duplicate (row, col) entries
// that sum.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix, the structure-preserving storage
// for the irregular meshes the FEM-2 hardware requirements call
// "irregular communication patterns".  Row i's entries occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], columns
// sorted ascending within each row.
type CSR struct {
	N      int // square order
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// NewCSRFromTriplets builds an n×n CSR matrix from assembly triplets,
// summing duplicates.  Row/col indices must lie in [0,n).
//
// Every (row, col) coordinate present in ts is stored, even when its
// values sum to exactly zero: the sparsity pattern is a function of the
// coordinates alone, so a Pattern reused across numeric re-assemblies
// always agrees with a from-scratch build.  Duplicates sum in input
// order, making the result bit-identical to a direct scatter-add.
func NewCSRFromTriplets(n int, ts []Triplet) (*CSR, error) {
	rows := make([]int, len(ts))
	cols := make([]int, len(ts))
	for k, t := range ts {
		rows[k], cols[k] = t.Row, t.Col
	}
	pat, scatter, err := NewPattern(n, rows, cols)
	if err != nil {
		return nil, err
	}
	m := pat.NewCSR()
	for k, t := range ts {
		m.Val[scatter[k]] += t.Val
	}
	return m, nil
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i,j) by binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// RowNNZ returns the number of non-zeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// MulVec computes out = M*x, allocating out when nil.  This is the SpMV
// kernel at the heart of the iterative FEM solvers.
func (m *CSR) MulVec(x, out Vector, st *Stats) Vector {
	if len(x) != m.N {
		panic(fmt.Errorf("%w: CSR.MulVec order %d by %d", ErrDimension, m.N, len(x)))
	}
	if out == nil {
		out = NewVector(m.N)
	}
	for i := 0; i < m.N; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		out[i] = s
	}
	st.addFlops(int64(2 * m.NNZ()))
	return out
}

// MulVecRows computes out[i] = (M*x)[i] for i in [rowLo,rowHi) only.  The
// parallel NAVM solvers partition rows across tasks and call this kernel on
// each partition; x is the task's window onto the full iterate.
func (m *CSR) MulVecRows(x, out Vector, rowLo, rowHi int, st *Stats) {
	if len(x) != m.N || len(out) != m.N {
		panic(fmt.Errorf("%w: CSR.MulVecRows", ErrDimension))
	}
	if rowLo < 0 || rowHi > m.N || rowLo > rowHi {
		panic(fmt.Errorf("linalg: MulVecRows range [%d,%d) outside order %d", rowLo, rowHi, m.N))
	}
	var nnz int
	for i := rowLo; i < rowHi; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		out[i] = s
		nnz += m.RowPtr[i+1] - m.RowPtr[i]
	}
	st.addFlops(int64(2 * nnz))
}

// Diagonal returns the main diagonal as a vector (Jacobi preconditioning
// and the Jacobi solver itself need it).
func (m *CSR) Diagonal() Vector { return m.DiagonalInto(nil) }

// DiagonalInto stores the main diagonal into d, allocating only when d is
// nil.  It walks each row once (columns are sorted, so the scan stops at
// the diagonal) instead of binary-searching per element; the iterative
// solver workspaces use it to refresh their cached diagonal without
// allocating.
func (m *CSR) DiagonalInto(d Vector) Vector {
	if d == nil {
		d = NewVector(m.N)
	}
	if len(d) != m.N {
		panic(fmt.Errorf("%w: CSR.DiagonalInto order %d into %d", ErrDimension, m.N, len(d)))
	}
	for i := 0; i < m.N; i++ {
		d[i] = 0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j > i {
				break
			}
			if j == i {
				d[i] = m.Val[k]
				break
			}
		}
	}
	return d
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			d := m.Val[k] - m.At(j, i)
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// Bandwidth returns the maximum |i-j| over stored non-zeros.
func (m *CSR) Bandwidth() int {
	var w int
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d := i - m.ColIdx[k]
			if d < 0 {
				d = -d
			}
			if d > w {
				w = d
			}
		}
	}
	return w
}

// ToDense expands to dense form (tests only).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.N, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// RowColumns returns the column indices of row i (shared storage; callers
// must not modify).  The NAVM layer uses this to discover which remote
// windows a row's update touches — the "irregular communication pattern".
func (m *CSR) RowColumns(i int) []int {
	return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
}
