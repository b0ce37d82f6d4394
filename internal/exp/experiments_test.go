package exp

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as a float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q is not numeric", tab.ID, row, col, s)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "longcolumn"}, Notes: "n"}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	s := tab.String()
	for _, want := range []string{"T: demo", "longcolumn", "2.5", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestE1ShapesHold(t *testing.T) {
	tab, err := E1Requirements([]int{8, 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// flops/word ratio improves with n (computation outgrows
	// communication).
	r8 := cell(t, tab, 0, 8)
	r16 := cell(t, tab, 1, 8)
	if r16 <= r8 {
		t.Errorf("flops/word did not improve with n: %g -> %g", r8, r16)
	}
	// halo per iteration grows sub-linearly in dofs: n doubles → halo
	// roughly doubles, dofs roughly quadruple.
	h8, h16 := cell(t, tab, 0, 7), cell(t, tab, 1, 7)
	d8, d16 := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if h16/h8 >= d16/d8 {
		t.Errorf("halo growth %g not slower than dof growth %g", h16/h8, d16/d8)
	}
}

func TestE2SpeedupMonotoneAtSmallCounts(t *testing.T) {
	tab, err := E2SolverSpeedup(16, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	s1 := cell(t, tab, 0, 2)
	s8 := cell(t, tab, 2, 2)
	if s8 <= s1 {
		t.Errorf("8-worker speedup %g not above 1-worker %g", s8, s1)
	}
	// Speedup is sub-linear: less than the worker count.
	if s8 >= 8 {
		t.Errorf("speedup %g super-linear; barriers should prevent that", s8)
	}
}

func TestE3ErrorsStaySmallAndParallelismHelps(t *testing.T) {
	tab, err := E3Substructure([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if e := cell(t, tab, i, 3); e > 1e-6 {
			t.Errorf("row %d substructure error %g", i, e)
		}
	}
	m1 := cell(t, tab, 0, 1)
	m4 := cell(t, tab, 1, 1)
	if m4 >= m1 {
		t.Errorf("condensations on 4 PEs (%g) not faster than on 1 (%g)", m4, m1)
	}
	// Independent condensations spread nearly linearly.
	if s4 := cell(t, tab, 1, 2); s4 < 2 {
		t.Errorf("4-worker condensation speedup %g below 2", s4)
	}
}

func TestE4ThroughputScales(t *testing.T) {
	tab, err := E4MultiUser([]int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	tp1 := cell(t, tab, 0, 3)
	tp4 := cell(t, tab, 1, 3)
	tp8 := cell(t, tab, 2, 3)
	// Four independent users on 16 workers (4 each) overlap almost
	// perfectly.
	if tp4 < 3*tp1 {
		t.Errorf("4-user throughput %g below 3× single-user %g", tp4, tp1)
	}
	// Eight users exceed the worker pool: throughput saturates rather
	// than scaling.
	if tp8 > 1.5*tp4 {
		t.Errorf("8-user throughput %g kept scaling past saturation (4-user %g)", tp8, tp4)
	}
}

func TestE5LinearInK(t *testing.T) {
	tab, err := E5TaskInitiation([]int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if created := cell(t, tab, 0, 1); created != 10 {
		t.Errorf("created %g of 10", created)
	}
	if created := cell(t, tab, 1, 1); created != 100 {
		t.Errorf("created %g of 100", created)
	}
	// Heap words scale linearly with K.
	h10, h100 := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if h100 < 9*h10 || h100 > 11*h10 {
		t.Errorf("heap words not ~linear: %g vs %g", h10, h100)
	}
}

func TestE6RemoteBlockBeatsElementLoop(t *testing.T) {
	tab, err := E6WindowAccess()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 0 local row, 1 local element, 2 remote row, 3 remote
	// element. Compare cycles/word.
	remoteBlock := cell(t, tab, 2, 5)
	remoteElem := cell(t, tab, 3, 5)
	if remoteBlock >= remoteElem {
		t.Errorf("remote block %g cycles/word not cheaper than element loop %g", remoteBlock, remoteElem)
	}
	localRow := cell(t, tab, 0, 5)
	if localRow >= remoteBlock {
		t.Errorf("local access %g not cheaper than remote %g", localRow, remoteBlock)
	}
}

func TestE7AlwaysCompletesAndOverheadGrows(t *testing.T) {
	tab, err := E7FaultIsolation([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tab.Rows {
		if r[4] != "true" {
			t.Errorf("row %d residual not ok: %v", i, r)
		}
	}
	m0 := cell(t, tab, 0, 2)
	m4 := cell(t, tab, 1, 2)
	if m4 <= m0 {
		t.Errorf("4 failures (%g) not slower than none (%g)", m4, m0)
	}
}

func TestE8LevelsOrdered(t *testing.T) {
	tab, err := E8Programmability()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// User-visible operation counts grow monotonically going down the
	// stack.
	prev := -1.0
	for i := range tab.Rows {
		ops := cell(t, tab, i, 1)
		if ops <= prev {
			t.Errorf("level %s ops %g not above previous %g", tab.Rows[i][0], ops, prev)
		}
		prev = ops
	}
}

func TestE9MoreWorkersFaster(t *testing.T) {
	tab, err := E9ClusterScheduling([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	m2 := cell(t, tab, 0, 2)
	m8 := cell(t, tab, 1, 2)
	if m8 >= m2 {
		t.Errorf("8 workers (%g) not faster than 2 (%g)", m8, m2)
	}
}

func TestE10AxpyScalesBetterThanDot(t *testing.T) {
	tab, err := E10LinalgKernels([]int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	dot1, dot16 := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	axpy1, axpy16 := cell(t, tab, 0, 3), cell(t, tab, 1, 3)
	dotSpeedup := dot1 / dot16
	axpySpeedup := axpy1 / axpy16
	if axpySpeedup <= dotSpeedup {
		t.Errorf("axpy speedup %g not above dot speedup %g (dot pays the reduction)", axpySpeedup, dotSpeedup)
	}
}

func TestE11AllAcceptedAllMutantsRejected(t *testing.T) {
	tab, err := E11HGraphValidation(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 message types", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] != "10/10" {
			t.Errorf("%s: valid accepted %s", r[0], r[1])
		}
		if r[2] != "10/10" {
			t.Errorf("%s: mutants rejected %s", r[0], r[2])
		}
	}
}

func TestDesignIterationPrefersBiggerMachine(t *testing.T) {
	tab, err := DesignIteration()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Notes, "winner") {
		t.Errorf("notes: %q", tab.Notes)
	}
	// The single-cluster configs must not win.
	if strings.Contains(tab.Notes, "winner: 1 clusters") {
		t.Errorf("design iteration picked the smallest machine: %s", tab.Notes)
	}
}

func TestE12SolverOrdering(t *testing.T) {
	tab, err := E12SolverComparison(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cg := cell(t, tab, 0, 1)
	sor := cell(t, tab, 1, 1)
	jac := cell(t, tab, 2, 1)
	if !(cg < sor && sor < jac) {
		t.Errorf("iteration ordering violated: cg=%g sor=%g jacobi=%g", cg, sor, jac)
	}
	// CG and multi-colour SOR must converge; plain Jacobi exhausting
	// its budget on the plate is the period-accurate outcome and is
	// reported, not hidden.
	if tab.Rows[0][5] != "true" {
		t.Error("CG did not converge")
	}
	if tab.Rows[1][5] != "true" {
		t.Error("multi-colour SOR did not converge")
	}
}

func TestE13LatencyMonotone(t *testing.T) {
	tab, err := E13LatencyAblation([]int64{0, 200, 800})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := range tab.Rows {
		m := cell(t, tab, i, 1)
		if m <= prev {
			t.Errorf("makespan not increasing with latency at row %d: %g after %g", i, m, prev)
		}
		prev = m
	}
	// Utilization decays as latency grows.
	u0 := cell(t, tab, 0, 3)
	u800 := cell(t, tab, 2, 3)
	if u800 >= u0 {
		t.Errorf("utilization %g at 800 cycles not below %g at 0", u800, u0)
	}
}

func TestE14PatternsDiffer(t *testing.T) {
	tab, err := E14CommunicationPattern()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (two 4x4 matrices)", len(tab.Rows))
	}
	// Grid CG: traffic between distinct clusters exists and the matrix
	// is non-trivial.
	var gridTotal, subTotal float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			gridTotal += cell(t, tab, r, 2+c)
			subTotal += cell(t, tab, 4+r, 2+c)
		}
	}
	if gridTotal == 0 {
		t.Error("grid solve produced no inter-cluster traffic")
	}
	if subTotal == 0 {
		t.Error("substructure solve produced no inter-cluster traffic")
	}
	// The substructure gather is hub-shaped: one destination column
	// holds the bulk of the traffic.
	var maxCol float64
	for c := 0; c < 4; c++ {
		var col float64
		for r := 0; r < 4; r++ {
			col += cell(t, tab, 4+r, 2+c)
		}
		if col > maxCol {
			maxCol = col
		}
	}
	if maxCol < 0.5*subTotal {
		t.Errorf("substructure traffic not hub-shaped: max column %g of %g", maxCol, subTotal)
	}
}

func TestRunAllProducesEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	tabs, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 17 {
		t.Fatalf("tables = %d, want 17", len(tabs))
	}
	ids := map[string]bool{}
	for _, tab := range tabs {
		ids[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Errorf("table %s empty", tab.ID)
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "DM"} {
		if !ids[want] {
			t.Errorf("missing table %s", want)
		}
	}
}

// TestRunAllDeterministic renders every table twice and requires the
// text to match, so the E-table output can be diffed between revisions.
// E5 is excepted: its makespans at large K vary from run to run.
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	render := func() map[string]string {
		tabs, err := RunAll()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, tab := range tabs {
			out[tab.ID] = tab.String()
		}
		return out
	}
	first, second := render(), render()
	for id, s := range first {
		if id != "E5" && second[id] != s {
			t.Errorf("table %s differs between runs:\n%s\n---\n%s", id, s, second[id])
		}
	}
}

func TestE15RCMFixesShuffledMesh(t *testing.T) {
	tab, err := E15RenumberingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows: 0 grid-natural/natural, 1 grid-natural/rcm,
	//       2 grid-shuffled/natural, 3 grid-shuffled/rcm.
	shufNatBW := cell(t, tab, 2, 2)
	shufRCMBW := cell(t, tab, 3, 2)
	if shufRCMBW >= shufNatBW {
		t.Errorf("RCM bandwidth %g not below shuffled %g", shufRCMBW, shufNatBW)
	}
	shufNatFlops := cell(t, tab, 2, 3)
	shufRCMFlops := cell(t, tab, 3, 3)
	if shufRCMFlops >= shufNatFlops/2 {
		t.Errorf("RCM flops %g not well below shuffled natural %g", shufRCMFlops, shufNatFlops)
	}
	// Every solve stays correct.
	for i := range tab.Rows {
		if e := cell(t, tab, i, 4); e > 1e-7 {
			t.Errorf("row %d error %g", i, e)
		}
	}
}

// TestE16ColdWarmSplit checks the factor-once column: every direct
// backend's warm repeat solve is far cheaper than its cold solve
// (factor + solve), while iterative backends repeat at full cost.
func TestE16ColdWarmSplit(t *testing.T) {
	tab, err := E16SequentialBackends(8)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]bool{"cholesky": true, "cholesky-rcm": true, "cholesky-env": true}
	seen := 0
	for i, row := range tab.Rows {
		cold := cell(t, tab, i, 2)
		warm := cell(t, tab, i, 3)
		if direct[row[0]] {
			seen++
			if warm >= cold/2 {
				t.Errorf("%s: warm %g Mflops not well below cold %g", row[0], warm, cold)
			}
		} else if warm != cold {
			t.Errorf("%s: warm %g differs from cold %g for an iterative backend", row[0], warm, cold)
		}
	}
	if seen != len(direct) {
		t.Errorf("found %d direct rows, want %d", seen, len(direct))
	}
}
