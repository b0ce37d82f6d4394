package main

import (
	"context"
	"fmt"

	fem2 "repro"
	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/fem"
)

// Relative tolerances of the correctness checks.  A direct or
// condensed solve must reproduce the in-process reference to rounding;
// an iterative solve stops at a 1e-8 residual, so it gets room for a
// different but equally converged iterate.
const (
	tolDirect    = 1e-12
	tolIterative = 1e-6
)

// daemonClusters and daemonPEs are the simulated machine fem2d builds
// by default; the reference and the traced replay build the same one.
const (
	daemonClusters = 4
	daemonPEs      = 8
)

// newSystem builds an in-process system with the daemon's
// configuration over the given store.
func newSystem(backend, path string) (*fem2.System, error) {
	return fem2.New(fem2.WithClusters(daemonClusters), fem2.WithPEsPerCluster(daemonPEs),
		fem2.WithStore(fem2.StoreConfig{Backend: backend, Path: path}))
}

// solveOpts maps a solve command onto fem.Solve's options, as the
// session does.
func solveOpts(c command.Solve, s *auvm.Session) fem.SolveOpts {
	return fem.SolveOpts{Backend: string(c.Method), Precond: string(c.Precond),
		Parallel: c.Parallel, Substructured: c.Substructures, RT: s.RT}
}

// iterative reports whether a solve stops on a residual tolerance.
func iterative(c command.Solve) bool {
	return c.Substructures == 0 && (c.Parallel > 0 || c.Method == "cg")
}

// reference fills in every unit's expected answers by replaying the
// stream on an in-process session and calling fem.Solve and
// fem.Stresses directly.  Stored designs are kept by name, so a solve
// after retrieve is checked against the design that was stored.
func reference(ctx context.Context, w *workload) error {
	sys, err := newSystem("mem", "")
	if err != nil {
		return err
	}
	defer sys.Close()
	s := sys.Session("reference")
	type design struct {
		m  *fem.Model
		ls []*fem.LoadSet
	}
	stored := map[string]design{}
	// A solve's answer depends only on the workspace, which only the
	// commands other than solve, stresses and store change; repeated
	// solves in between are answered once.
	type answered struct {
		e   *expect
		sol *fem.Solution
	}
	solved := map[string]answered{}

	answer := func(cmd command.Command) (*expect, error) {
		if sub, ok := cmd.(command.Submit); ok {
			cmd = sub.Cmd
		}
		switch c := cmd.(type) {
		case command.Solve:
			if a, ok := solved[c.String()]; ok {
				s.WS.PutSolution(c.Model, a.sol)
				return a.e, nil
			}
			m, ls := s.WS.Model(c.Model), s.WS.LoadSet(c.Model, c.Set)
			if m == nil || ls == nil {
				return nil, fmt.Errorf("reference: %s before its model or load set", c)
			}
			sol, err := fem.Solve(ctx, m, ls, solveOpts(c, s))
			if err != nil {
				return nil, fmt.Errorf("reference: %s: %w", c, err)
			}
			s.WS.PutSolution(c.Model, sol)
			dof, disp := auvm.MaxDisplacement(sol)
			tol := tolDirect
			if iterative(c) {
				tol = tolIterative
			}
			e := &expect{value: disp, index: dof, tol: tol}
			solved[c.String()] = answered{e, sol}
			return e, nil
		case command.Stresses:
			st, err := fem.Stresses(s.WS.Model(c.Model), s.WS.Solution(c.Model))
			if err != nil {
				return nil, fmt.Errorf("reference: %s: %w", c, err)
			}
			elem, vm := auvm.MaxVonMises(st)
			return &expect{value: vm, index: elem, tol: tolDirect}, nil
		case command.Store:
			d := design{m: s.WS.Model(c.Model)}
			for _, n := range s.WS.LoadSetNames(c.Model) {
				d.ls = append(d.ls, s.WS.LoadSet(c.Model, n))
			}
			stored[c.Model] = d
			return nil, nil
		case command.Retrieve:
			clear(solved)
			d, ok := stored[c.Name]
			if !ok {
				return nil, fmt.Errorf("reference: %s before its store", c)
			}
			s.WS.PutModel(d.m)
			for _, ls := range d.ls {
				if err := s.WS.PutLoadSet(c.Name, ls); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		clear(solved)
		_, err := s.Do(ctx, cmd)
		return nil, err
	}

	for _, c := range append(append([]command.Command{}, w.setup...), w.warm...) {
		if _, err := answer(c); err != nil {
			return err
		}
	}
	for i := range w.units {
		u := &w.units[i]
		u.want = make([]*expect, len(u.cmds))
		for k, c := range u.cmds {
			if u.want[k], err = answer(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// check compares a reply with its reference; a nil want accepts any
// successful reply.
func check(want *expect, res command.Result) error {
	if want == nil {
		return nil
	}
	var got float64
	var idx int
	switch r := res.(type) {
	case *command.SolveResult:
		got, idx = r.MaxDisp, r.MaxDOF
	case *command.StressesResult:
		got, idx = r.MaxVonMises, r.MaxElem
	default:
		return fmt.Errorf("reply %T where a solve or stresses result was due", res)
	}
	diff := got - want.value
	if diff < 0 {
		diff = -diff
	}
	scale := want.value
	if scale < 0 {
		scale = -scale
	}
	if idx != want.index || diff > want.tol*scale {
		return fmt.Errorf("answer %.17g at %d, reference %.17g at %d (tol %g)",
			got, idx, want.value, want.index, want.tol)
	}
	return nil
}
