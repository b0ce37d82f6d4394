package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// poisson1D builds the order-n tridiagonal (2,-1) SPD system as triplets.
func poisson1D(n int) []Triplet {
	var ts []Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, 2})
		if i > 0 {
			ts = append(ts, Triplet{i, i - 1, -1})
		}
		if i < n-1 {
			ts = append(ts, Triplet{i, i + 1, -1})
		}
	}
	return ts
}

// poisson2D builds the 5-point Laplacian on an n×n interior grid.
func poisson2D(n int) *CSR {
	var ts []Triplet
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, Triplet{id(i, j), id(i, j), 4})
			if i > 0 {
				ts = append(ts, Triplet{id(i, j), id(i-1, j), -1})
			}
			if i < n-1 {
				ts = append(ts, Triplet{id(i, j), id(i+1, j), -1})
			}
			if j > 0 {
				ts = append(ts, Triplet{id(i, j), id(i, j-1), -1})
			}
			if j < n-1 {
				ts = append(ts, Triplet{id(i, j), id(i, j+1), -1})
			}
		}
	}
	m, err := NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestDotAxpyScaleNorm(t *testing.T) {
	st := &Stats{}
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := Dot(a, b, st); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if st.Flops != 6 {
		t.Errorf("Dot flops = %d, want 6", st.Flops)
	}
	y := b.Clone()
	Axpy(2, a, y, st)
	want := Vector{6, 9, 12}
	if MaxAbsDiff(y, want) != 0 {
		t.Errorf("Axpy = %v, want %v", y, want)
	}
	Scale(0.5, y, st)
	if MaxAbsDiff(y, Vector{3, 4.5, 6}) != 0 {
		t.Errorf("Scale = %v", y)
	}
	if got := Norm2(Vector{3, 4}, st); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := NormInf(Vector{-7, 3}); got != 7 {
		t.Errorf("NormInf = %g, want 7", got)
	}
}

func TestAddSub(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{3, 5}
	if s := Add(a, b, nil, nil); MaxAbsDiff(s, Vector{4, 7}) != 0 {
		t.Errorf("Add = %v", s)
	}
	if d := Sub(b, a, nil, nil); MaxAbsDiff(d, Vector{2, 3}) != 0 {
		t.Errorf("Sub = %v", d)
	}
	out := NewVector(2)
	Add(a, b, out, nil)
	if MaxAbsDiff(out, Vector{4, 7}) != 0 {
		t.Errorf("Add into out = %v", out)
	}
}

func TestDotDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths did not panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2}, nil)
}

func TestVectorCloneIndependent(t *testing.T) {
	a := Vector{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestStatsNilAndMerge(t *testing.T) {
	var s *Stats
	s.addFlops(10) // must not panic
	s.Merge(Stats{Flops: 5})
	st := &Stats{Flops: 1, Iterations: 2}
	st.Merge(Stats{Flops: 10, Iterations: 3})
	if st.Flops != 11 || st.Iterations != 5 {
		t.Errorf("Merge = %+v", *st)
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.AddAt(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %g, want 7", m.At(1, 2))
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Errorf("Row view = %v", r)
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestDenseMulVecAndMul(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	st := &Stats{}
	y := m.MulVec(Vector{1, 1}, nil, st)
	if MaxAbsDiff(y, Vector{3, 7}) != 0 {
		t.Errorf("MulVec = %v", y)
	}
	if st.Flops != 8 {
		t.Errorf("MulVec flops = %d, want 8", st.Flops)
	}
	p := m.Mul(DenseFromRows([][]float64{{0, 1}, {1, 0}}), nil)
	if p.At(0, 0) != 2 || p.At(0, 1) != 1 || p.At(1, 0) != 4 || p.At(1, 1) != 3 {
		t.Errorf("Mul result wrong: %+v", p)
	}
}

func TestDenseTransposeSymmetric(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %+v", mt)
	}
	s := DenseFromRows([][]float64{{2, -1}, {-1, 2}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a := DenseFromRows([][]float64{{2, -1}, {1, 2}})
	if a.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if m.IsSymmetric(0) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestDenseSolveGauss(t *testing.T) {
	m := DenseFromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := Vector{1, -2, 3}
	b := m.MulVec(want, nil, nil)
	x, err := m.SolveGauss(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-12 {
		t.Errorf("SolveGauss error %g", d)
	}
}

func TestDenseSolveGaussPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	m := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := m.SolveGauss(Vector{3, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, Vector{5, 3}); d > 1e-14 {
		t.Errorf("pivot solve = %v", x)
	}
}

func TestDenseSolveGaussSingular(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.SolveGauss(Vector{1, 2}, nil); err == nil {
		t.Error("singular solve did not fail")
	}
}

// The TestBanded* tests drive banded (tridiagonal) matrices through
// envelope storage, the factor storage of every direct solve.

func TestBandedAtSetSymmetry(t *testing.T) {
	e := NewEnvelope([]int{0, 0, 1, 2})
	e.Set(1, 0, -1)
	e.Set(1, 1, 2)
	if e.At(0, 1) != -1 {
		t.Errorf("symmetric At = %g, want -1", e.At(0, 1))
	}
	if e.At(0, 3) != 0 {
		t.Errorf("outside profile At = %g, want 0", e.At(0, 3))
	}
	e.AddAt(1, 1, 3)
	if e.At(1, 1) != 5 {
		t.Errorf("AddAt = %g, want 5", e.At(1, 1))
	}
}

func TestBandedSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set outside profile did not panic")
		}
	}()
	NewEnvelope([]int{0, 0, 1, 2, 3}).Set(4, 0, 1)
}

func TestBandedCholeskySolves1DPoisson(t *testing.T) {
	n := 20
	m, err := NewCSRFromTriplets(n, poisson1D(n))
	if err != nil {
		t.Fatal(err)
	}
	want := NewVector(n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	rhs := m.MulVec(want, nil, nil)
	plan, err := NewDirectPlan(m, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	if err := plan.Refactor(m, st); err != nil {
		t.Fatal(err)
	}
	x, err := plan.SolveInto(rhs, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-10 {
		t.Errorf("Cholesky error %g", d)
	}
	if st.Flops == 0 {
		t.Error("Cholesky recorded no flops")
	}
}

func TestBandedCholeskyNotPositiveDefinite(t *testing.T) {
	e := NewEnvelope([]int{0, 0})
	e.Set(0, 0, 1)
	e.Set(1, 0, 5)
	e.Set(1, 1, 1) // pivot 1 - 25 < 0
	if err := e.CholeskyFactorInPlace(nil); err == nil {
		t.Error("indefinite matrix factored without error")
	}
}

func TestCSRFromTripletsSumsDuplicates(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {0, 1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 {
		t.Errorf("duplicate sum = %g, want 3", m.At(0, 0))
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCSRFromTripletsKeepsExplicitZero(t *testing.T) {
	// Entries whose values cancel stay in the pattern: the sparsity
	// structure depends only on the coordinates, so a reused Pattern and
	// a from-scratch build can never disagree on NNZ.
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 0, 1}, {0, 1, 1}, {0, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (cancelled entry kept as explicit zero)", m.NNZ())
	}
	if m.At(0, 1) != 0 {
		t.Errorf("cancelled At = %g", m.At(0, 1))
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSRFromTriplets(2, []Triplet{{2, 0, 1}}); err == nil {
		t.Error("out-of-range triplet accepted")
	}
	if _, err := NewCSRFromTriplets(2, []Triplet{{0, -1, 1}}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	m := poisson2D(5)
	rng := rand.New(rand.NewSource(2))
	x := NewVector(m.N)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := m.MulVec(x, nil, nil)
	want := m.ToDense().MulVec(x, nil, nil)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("CSR MulVec differs from dense by %g", d)
	}
}

func TestCSRMulVecRowsPartitionEqualsWhole(t *testing.T) {
	m := poisson2D(4)
	x := NewVector(m.N)
	for i := range x {
		x[i] = float64(i + 1)
	}
	whole := m.MulVec(x, nil, nil)
	part := NewVector(m.N)
	mid := m.N / 2
	m.MulVecRows(x, part, 0, mid, nil)
	m.MulVecRows(x, part, mid, m.N, nil)
	if d := MaxAbsDiff(whole, part); d != 0 {
		t.Errorf("row partition differs from whole by %g", d)
	}
}

func TestCSRDiagonalSymmetryBandwidth(t *testing.T) {
	m := poisson2D(3)
	d := m.Diagonal()
	for i, v := range d {
		if v != 4 {
			t.Errorf("Diagonal[%d] = %g, want 4", i, v)
		}
	}
	if !m.IsSymmetric(0) {
		t.Error("Poisson matrix reported asymmetric")
	}
	if bw := m.Bandwidth(); bw != 3 {
		t.Errorf("Bandwidth = %d, want 3", bw)
	}
	if cols := m.RowColumns(0); len(cols) != 3 {
		t.Errorf("RowColumns(0) = %v", cols)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestQuickDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		d1 := Dot(a, b, nil)
		d2 := Dot(b, a, nil)
		return d1 == d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for random SPD tridiagonal systems, Cholesky solve agrees with
// Gaussian elimination on the dense expansion.
func TestQuickCholeskyMatchesGauss(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%14 + 2
		rng := rand.New(rand.NewSource(seed))
		first := make([]int, n)
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, 3+rng.Float64())
			if i > 0 {
				first[i] = i - 1
				v := rng.Float64() - 0.5
				d.Set(i, i-1, v)
				d.Set(i-1, i, v)
			}
		}
		e := NewEnvelope(first)
		for i := 0; i < n; i++ {
			for j := first[i]; j <= i; j++ {
				e.Set(i, j, d.At(i, j))
			}
		}
		rhs := NewVector(n)
		for i := range rhs {
			rhs[i] = rng.Float64()*2 - 1
		}
		if err := e.CholeskyFactorInPlace(nil); err != nil {
			return false
		}
		xc := e.CholeskySolveInto(rhs, nil, nil)
		xg, err := d.SolveGauss(rhs, nil)
		if err != nil {
			return false
		}
		return MaxAbsDiff(xc, xg) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: CSR built from shuffled triplets equals CSR from sorted ones.
func TestQuickCSRTripletOrderIrrelevant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		ts := poisson1D(n)
		shuffled := make([]Triplet, len(ts))
		copy(shuffled, ts)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m1, err1 := NewCSRFromTriplets(n, ts)
		m2, err2 := NewCSRFromTriplets(n, shuffled)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m1.At(i, j) != m2.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
