package fem

import (
	"context"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// warmModel returns the cache plate after two solves, so its symbolic
// assembly is retained.
func warmModel(t *testing.T) (*Model, *LoadSet) {
	t.Helper()
	m, ls := cachePlate(t)
	for i := 0; i < 2; i++ {
		if _, err := Solve(context.Background(), m, ls, SolveOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if m.sym.ws == nil {
		t.Fatal("no workspace retained after two solves")
	}
	return m, ls
}

// referenceSolve solves m through a one-shot assembly and a cold
// factorisation: the answer a retained workspace must reproduce.
func referenceSolve(t *testing.T, m *Model, ls *LoadSet) *Solution {
	t.Helper()
	asm, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveAssembled(context.Background(), m, asm, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// sameBits fails unless two solutions are equal bit for bit.
func sameBits(t *testing.T, got, want *Solution) {
	t.Helper()
	if len(got.U) != len(want.U) {
		t.Fatalf("solution length %d, want %d", len(got.U), len(want.U))
	}
	for i := range want.U {
		if got.U[i] != want.U[i] {
			t.Fatalf("dof %d: %v, want %v", i, got.U[i], want.U[i])
		}
	}
}

// TestSolveSymbolicCacheTracksMutations mutates a model with a retained
// workspace through its methods and its exported fields; every next
// solve must equal a fresh one-shot assembly and cold solve of the
// mutated model bit for bit.  Topology changes rebuild the workspace;
// a replaced element with unchanged connectivity keeps it.
func TestSolveSymbolicCacheTracksMutations(t *testing.T) {
	const ny = 4 // cachePlate's NY
	cases := []struct {
		name    string
		mutate  func(t *testing.T, m *Model)
		rebuilt bool
	}{
		{"AddNode", func(t *testing.T, m *Model) {
			nn := m.AddNode(7, 0)
			for _, other := range []int{len(m.Nodes) - 2, len(m.Nodes) - 3} {
				if err := m.AddElement(&Bar{N1: nn, N2: other, Mat: Steel()}); err != nil {
					t.Fatal(err)
				}
			}
		}, true},
		{"AddElement", func(t *testing.T, m *Model) {
			if err := m.AddElement(&Bar{N1: GridNodeID(ny, 1, 0), N2: GridNodeID(ny, 5, ny), Mat: Steel()}); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"FixDOF", func(t *testing.T, m *Model) {
			if err := m.FixDOF(DOF(GridNodeID(ny, 3, 0), 1)); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"replace element, same nodes", func(t *testing.T, m *Model) {
			old := m.Elements[5].(*CST)
			soft := Steel()
			soft.E /= 3
			m.Elements[5] = &CST{N1: old.N1, N2: old.N2, N3: old.N3, Mat: soft}
		}, false},
		{"replace element, rotated nodes", func(t *testing.T, m *Model) {
			old := m.Elements[5].(*CST)
			m.Elements[5] = &CST{N1: old.N2, N2: old.N3, N3: old.N1, Mat: old.Mat}
		}, true},
		{"edit CST.N2 in place", func(t *testing.T, m *Model) {
			// Element 0 is (0,0)-(1,0)-(1,1); (0,0)-(2,0)-(1,1) is
			// still counterclockwise.
			m.Elements[0].(*CST).N2 = GridNodeID(ny, 2, 0)
		}, true},
		{"append to Elements", func(t *testing.T, m *Model) {
			m.Elements = append(m.Elements, &Bar{N1: GridNodeID(ny, 2, ny), N2: GridNodeID(ny, 6, 0), Mat: Steel()})
		}, true},
		{"truncate Elements", func(t *testing.T, m *Model) {
			// The last element's nodes keep the one before it.
			m.Elements = m.Elements[:len(m.Elements)-1]
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, ls := warmModel(t)
			before := m.sym.ws
			tc.mutate(t, m)
			got, err := Solve(context.Background(), m, ls, SolveOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt := m.sym.ws != before; rebuilt != tc.rebuilt {
				t.Errorf("workspace rebuilt = %v, want %v", rebuilt, tc.rebuilt)
			}
			fresh, lsFresh := cachePlate(t)
			tc.mutate(t, fresh)
			sameBits(t, got, referenceSolve(t, fresh, lsFresh))
		})
	}
}

// TestSolveSymbolicCacheSeesNewNode adds an unconnected node after a
// cached solve: only the node count changed, and the solve must fail
// exactly as a fresh one does rather than answer for the old grid.
func TestSolveSymbolicCacheSeesNewNode(t *testing.T) {
	m, ls := warmModel(t)
	m.AddNode(9, 9)
	_, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err == nil {
		t.Fatal("solve with a floating node succeeded")
	}
	fresh, _ := cachePlate(t)
	fresh.AddNode(9, 9)
	_, want := Solve(context.Background(), fresh, ls, SolveOpts{})
	if want == nil || err.Error() != want.Error() {
		t.Errorf("error %v, want %v", err, want)
	}
}

// TestSolveRetainsWorkspaceFromSecondAssembly pins the retention rule:
// a model solved once keeps no workspace, the second solve retains one,
// and later solves reuse it.
func TestSolveRetainsWorkspaceFromSecondAssembly(t *testing.T) {
	m, ls := cachePlate(t)
	ctx := context.Background()
	ref := referenceSolve(t, m, ls)
	var kept *Workspace
	for i := 0; i < 4; i++ {
		sol, err := Solve(ctx, m, ls, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, sol, ref)
		switch {
		case i == 0 && m.sym.ws != nil:
			t.Fatal("a model solved once retained its workspace")
		case i == 1:
			kept = m.sym.ws
			if kept == nil {
				t.Fatal("second solve retained no workspace")
			}
		case i > 1 && m.sym.ws != kept:
			t.Fatalf("solve %d rebuilt the workspace of an unchanged model", i+1)
		}
	}
}

// TestTouchDropsWorkspace checks Touch releases the retained workspace
// along with the factors, and that the model then counts as never
// assembled.
func TestTouchDropsWorkspace(t *testing.T) {
	m, ls := warmModel(t)
	m.Touch()
	if m.sym.ws != nil {
		t.Fatal("Touch kept the workspace")
	}
	if _, err := Solve(context.Background(), m, ls, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	if m.sym.ws != nil {
		t.Error("first solve after Touch retained a workspace")
	}
}

// TestSolveBusyWorkspaceFallsBack holds the model's workspace the way a
// concurrent solve does: Solve must not wait for it, and its one-shot
// assembly must give the same bits.
func TestSolveBusyWorkspaceFallsBack(t *testing.T) {
	m, ls := warmModel(t)
	kept := m.sym.ws
	m.sym.mu.Lock()
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	m.sym.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if m.sym.ws != kept {
		t.Error("fallback solve replaced the retained workspace")
	}
	sameBits(t, sol, referenceSolve(t, m, ls))
}

// TestSolveConcurrentOneModel runs direct and iterative solves of one
// model from several goroutines (run it under -race): each must equal
// its sequential answer bit for bit, whichever of them held the
// retained workspace.
func TestSolveConcurrentOneModel(t *testing.T) {
	m, ls := warmModel(t)
	ctx := context.Background()
	backends := []string{"", linalg.BackendCG}
	want := map[string]*Solution{}
	for _, b := range backends {
		sol, err := Solve(ctx, m, ls, SolveOpts{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		want[b] = sol
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sol, err := Solve(ctx, m, ls, SolveOpts{Backend: b})
				if err != nil {
					errc <- err
					return
				}
				for d, v := range want[b].U {
					if sol.U[d] != v {
						t.Errorf("backend %q: dof %d differs under concurrency", b, d)
						return
					}
				}
			}
		}(backends[g%len(backends)])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSolveWarmRepeatAllocs bounds a warm repeat direct solve: with the
// workspace retained and the factor cached it does no symbolic work, so
// what it allocates is the RHS, the reduced and the expanded solution,
// the residual check's scratch, and the Solution with its stats — six,
// against hundreds for one symbolic assembly.
func TestSolveWarmRepeatAllocs(t *testing.T) {
	m, ls := warmModel(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(ctx, m, ls, SolveOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm repeat solve: %v allocs", allocs)
	if allocs > 6 {
		t.Errorf("warm repeat solve allocates %v times, want <= 6", allocs)
	}
}
