package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/wire"
)

// A span is one timed call into a layer's public function.  Spans of
// one unit share its index; setup and warm-up are not recorded.
//
// The benchmark cannot enter auvm.Session.Do, so a Do span's children
// are shadow calls: right after Do returns, the replay makes the same
// public calls Do made — fem.NewWorkspace, Workspace.Assemble, the
// direct plan's Refactor (only when Do reported a fresh factor) and
// SolveInto, fem.Stresses, fem.Solve for the simulated-machine and
// substructured paths — on the same model, and records them with the
// Do span as parent.  A layer's self time is its span's duration minus
// its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// record stores a span and returns its id.
func (t *tracer) record(name string, parent, unit int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: unit, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the total time and call count of one span name.
type layerTime struct {
	calls int
	total time.Duration
}

func (l layerTime) meanUS() float64 {
	return ratio(float64(l.total)/float64(time.Microsecond), float64(l.calls))
}

// replayed is what one in-process replay of a round's stream measured.
type replayed struct {
	units, failed int
	layers        map[string]*layerTime // by span name; "auvm.self" is derived
	doTime        time.Duration
	wireBytes     int64
	factorFlops   int64
	profileNNZ    int64
	cgIters       int
	cgSolves      int
	simCycles     int64
	allocBytes    uint64
	gcs           uint32
	liveGrowth    int64
}

func (r *replayed) add(name string, d time.Duration) {
	l := r.layers[name]
	if l == nil {
		l = &layerTime{}
		r.layers[name] = l
	}
	l.calls++
	l.total += d
}

// replay runs one round's stream in process on a system built with the
// daemon's configuration, each command passing through the wire and
// command codecs as it would over a connection.  With tr nil it only
// times Session.Do and reads runtime.MemStats; with tr set it also
// records spans and makes the shadow calls.  Submitted jobs run their
// command synchronously: queueing is the timed run's to measure.
func replay(ctx context.Context, w *workload, storePath string, tr *tracer) (*replayed, error) {
	_ = os.Remove(storePath)
	defer os.Remove(storePath)
	sys, err := newSystem(w.store, storePath)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	s := sys.Session("replay")
	sh := &shadow{s: s, plans: map[string]*linalg.DirectPlan{}}
	out := &replayed{layers: map[string]*layerTime{}}
	for _, c := range append(append([]command.Command{}, w.setup...), w.warm...) {
		c = unwrap(c)
		res, err := s.Do(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("replay set-up %s: %w", c, err)
		}
		if tr != nil {
			if err := sh.calls(ctx, c, res, nil, nil); err != nil {
				return nil, err
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, u := range w.round(0) {
		out.units++
		var unitErr error
		for k, c := range u.cmds {
			res, err := out.step(ctx, s, sh, tr, i, unwrap(c))
			if err == nil {
				err = check(u.want[k], res)
			}
			if err != nil {
				unitErr = fmt.Errorf("replay %s: %w", c, err)
				break
			}
		}
		if unitErr != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "fem2bench:", unitErr)
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcs = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out.liveGrowth = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	return out, nil
}

func unwrap(c command.Command) command.Command {
	if sub, ok := c.(command.Submit); ok {
		return sub.Cmd
	}
	return c
}

// step runs one command through the codecs and Session.Do.
func (r *replayed) step(ctx context.Context, s *auvm.Session, sh *shadow, tr *tracer, unit int, c command.Command) (command.Result, error) {
	var buf bytes.Buffer
	t := time.Now()
	data, err := command.MarshalCommand(c)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := wire.EncodeRequest(&buf, &wire.Request{ID: 1, Command: data}); err != nil {
		return nil, err
	}
	r.wireBytes += int64(buf.Len())
	req, err := wire.DecodeRequest(&buf)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	cmd, err := command.UnmarshalCommand(req.Command)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	res, err := s.Do(ctx, cmd)
	t4 := time.Now()
	r.doTime += t4.Sub(t3)
	if err != nil {
		return nil, err
	}
	body, err := command.MarshalResult(res)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	if err := wire.EncodeResponse(&buf, &wire.Response{ID: 1, Result: body}); err != nil {
		return nil, err
	}
	r.wireBytes += int64(buf.Len())
	resp, err := wire.DecodeResponse(&buf)
	if err != nil {
		return nil, err
	}
	t6 := time.Now()
	got, err := command.UnmarshalResult(resp.Result)
	if err != nil {
		return nil, err
	}
	t7 := time.Now()
	if tr == nil {
		return got, nil
	}
	r.add("wire.codec", t2.Sub(t1)+t6.Sub(t5))
	r.add("command.codec", t1.Sub(t)+t3.Sub(t2)+t5.Sub(t4)+t7.Sub(t6))
	tr.record("wire.request", 0, unit, t1, t2)
	tr.record("wire.response", 0, unit, t5, t6)
	do := tr.record("auvm.Session.Do", 0, unit, t3, t4)
	r.add("auvm.Session.Do", t4.Sub(t3))
	var children time.Duration
	err = sh.calls(ctx, c, res, func(name string, start, end time.Time) {
		tr.record(name, do, unit, start, end)
		r.add(name, end.Sub(start))
		children += end.Sub(start)
	}, r)
	r.add("auvm.self", t4.Sub(t3)-children)
	return got, err
}

// shadow remakes, from outside, the public calls Session.Do made for a
// command.  It keeps its own direct plan per model, factored whenever
// Do reported a fresh factorisation, so a warm solve shadows as one
// SolveInto.
type shadow struct {
	s     *auvm.Session
	plans map[string]*linalg.DirectPlan
}

// calls makes the shadow calls for c, whose Do returned res, reporting
// each through emit (nil during set-up) and its counts into r.
func (sh *shadow) calls(ctx context.Context, c command.Command, res command.Result,
	emit func(name string, start, end time.Time), r *replayed) error {
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		if emit != nil {
			emit(name, start, time.Now())
		}
		return err
	}
	switch c := c.(type) {
	case command.Stresses:
		m, sol := sh.s.WS.Model(c.Model), sh.s.WS.Solution(c.Model)
		return timed("fem.Stresses", func() error { _, err := fem.Stresses(m, sol); return err })
	case command.Solve:
		return sh.solve(ctx, c, res.(*command.SolveResult), timed, r)
	}
	return nil
}

func (sh *shadow) solve(ctx context.Context, c command.Solve, res *command.SolveResult,
	timed func(string, func() error) error, r *replayed) error {
	m, ls := sh.s.WS.Model(c.Model), sh.s.WS.LoadSet(c.Model, c.Set)
	opts := solveOpts(c, sh.s)
	if c.Substructures > 0 || c.Parallel > 0 {
		name := "fem.Solve.substructured"
		if c.Substructures == 0 {
			name = "fem.Solve.parallel"
		}
		var sol *fem.Solution
		err := timed(name, func() (err error) { sol, err = fem.Solve(ctx, m, ls, opts); return err })
		if err == nil && sol.Par != nil && r != nil {
			r.simCycles += sol.Par.Makespan
		}
		return err
	}
	var ws *fem.Workspace
	var asm *fem.Assembled
	if err := timed("fem.NewWorkspace", func() (err error) { ws, err = fem.NewWorkspace(m); return err }); err != nil {
		return err
	}
	if err := timed("fem.Workspace.Assemble", func() (err error) { asm, err = ws.Assemble(); return err }); err != nil {
		return err
	}
	b, err := m.RHS(ls, asm.Index, len(asm.Free))
	if err != nil {
		return err
	}
	popts, direct := linalg.PlanOptsFor(res.Backend)
	if !direct {
		if r != nil && c.Precond != "" {
			r.cgIters += res.Iterations
			r.cgSolves++
		}
		solver, err := linalg.Backend(string(c.Method))
		if err != nil {
			return err
		}
		return timed("linalg.Solver.Solve", func() error {
			_, _, err := solver.Solve(ctx, asm.K, b, linalg.IterOpts{Precond: string(c.Precond)})
			return err
		})
	}
	p := sh.plans[c.Model]
	if res.Refactored || p == nil || !p.MatchesPattern(asm.K) {
		var st linalg.Stats
		err := timed("linalg.DirectPlan.Refactor", func() (err error) {
			if p, err = linalg.NewDirectPlan(asm.K, popts); err != nil {
				return err
			}
			return p.Refactor(asm.K, &st)
		})
		if err != nil {
			return err
		}
		sh.plans[c.Model] = p
		if r != nil {
			r.factorFlops += st.Flops
			r.profileNNZ += int64(p.ProfileNNZ())
		}
	}
	return timed("linalg.DirectPlan.SolveInto", func() error {
		_, err := p.SolveInto(b, nil, nil)
		return err
	})
}

// traceFile is where a traced run writes its spans.
func traceFile(workdir, workload string, seed int64) string {
	return filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
}
