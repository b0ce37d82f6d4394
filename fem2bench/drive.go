package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/command"
	"repro/internal/wire"
)

// round is what one fresh daemon measured over one pass of the stream.
type round struct {
	setup time.Duration
	wall  time.Duration
	// lat holds one latency per unit in ms; a failed unit is +Inf.
	lat               []float64
	attempted, failed int
	daemonCPU         time.Duration
	hwm               int64

	// Per-layer raw material.
	before, after *command.StatsResult
	rpcs          int
	rpcTime       time.Duration
	storeGrowth   int64
	queueWait     []float64 // ms, study-batch only
	run           []float64 // ms, study-batch only
	host0, host1  hostCPU
	genCPU        time.Duration
	connErrors    int
	eventsMissed  int
	firstErr      error
	// spin is hostSpin's time, taken just before the daemon starts.
	spin time.Duration
}

// daemonArgs are the flags fem2d runs with for a workload; storePath
// is used by the file backend.
func daemonArgs(w *workload, storePath string) []string {
	args := []string{"-store", w.store}
	if w.store == "file" {
		args = append(args, "-store-path", storePath)
	}
	return args
}

// runRound starts a fresh daemon, builds the working set, warms it,
// and times one pass of the workload's units.
func runRound(ctx context.Context, bin, workdir string, w *workload, idx int) (*round, error) {
	storePath := filepath.Join(workdir, fmt.Sprintf("store-%d-%d.db", os.Getpid(), idx))
	_ = os.Remove(storePath)
	defer os.Remove(storePath)

	r := &round{spin: hostSpin()}
	t0 := time.Now()
	d, err := startDaemon(bin, daemonArgs(w, storePath))
	if err != nil {
		return nil, err
	}
	pid := d.cmd.Process.Pid
	cl, err := client.DialWithOptions(d.addr, "bench", client.Options{MaxRetries: 2, BaseBackoff: 10 * time.Millisecond})
	if err != nil {
		d.stop()
		return nil, err
	}
	events := newEventLog(cl.Events())
	finish := func() error {
		cl.Close() // never quit: Close ends the connection cleanly
		events.wait()
		return d.stop()
	}
	for _, c := range append(append([]command.Command{}, w.setup...), w.warm...) {
		if _, err := doSettled(ctx, cl, c); err != nil {
			finish()
			return nil, fmt.Errorf("set-up %s: %w", c, err)
		}
	}
	r.setup = time.Since(t0)

	if r.before, err = stats(ctx, cl); err != nil {
		finish()
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		finish()
		return nil, err
	}
	size0 := fileSize(storePath)
	r.host0, r.genCPU = readHostCPU(), selfCPU()
	start := time.Now()
	if w.study > 0 {
		r.driveStudies(ctx, cl, w.round(idx), w.study, events)
	} else {
		r.driveLoop(ctx, cl, w.round(idx))
	}
	r.wall = time.Since(start)
	r.host1, r.genCPU = readHostCPU(), selfCPU()-r.genCPU
	cpu1, err := procCPU(pid)
	if err == nil {
		r.hwm, err = procHWM(pid)
	}
	if err != nil {
		finish()
		return nil, err
	}
	r.daemonCPU = cpu1 - cpu0
	r.storeGrowth = fileSize(storePath) - size0
	if r.after, err = stats(ctx, cl); err != nil {
		finish()
		return nil, err
	}
	return r, finish()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func stats(ctx context.Context, cl *client.Client) (*command.StatsResult, error) {
	res, err := cl.Do(ctx, command.Stats{})
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	st, ok := res.(*command.StatsResult)
	if !ok {
		return nil, fmt.Errorf("stats: reply %T", res)
	}
	return st, nil
}

// doSettled runs a command, and for a submit also waits for the job
// and returns the wrapped command's result.
func doSettled(ctx context.Context, cl *client.Client, c command.Command) (command.Result, error) {
	res, err := cl.Do(ctx, c)
	if err != nil {
		return nil, err
	}
	if sub, ok := res.(*command.SubmitResult); ok {
		return cl.Do(ctx, command.Wait{ID: sub.ID})
	}
	return res, nil
}

// fail records a failed unit.  Errors from below the command layer
// (the connection, framing, retries) also count as connection errors.
func (r *round) fail(err error) {
	r.failed++
	var re *client.RemoteError
	if !errors.As(err, &re) {
		r.connErrors++
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// driveLoop is the closed loop: each unit's commands in order, the
// next unit only after the last reply.
func (r *round) driveLoop(ctx context.Context, cl *client.Client, units []unit) {
	for _, u := range units {
		r.attempted++
		t := time.Now()
		var err error
		for k, c := range u.cmds {
			rs := time.Now()
			var res command.Result
			res, err = cl.Do(ctx, c)
			r.rpcTime += time.Since(rs)
			r.rpcs++
			if err == nil {
				err = check(u.want[k], res)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", c, err)
				break
			}
		}
		if err != nil {
			r.fail(err)
			r.lat = append(r.lat, math.Inf(1))
			continue
		}
		r.lat = append(r.lat, ms(time.Since(t)))
	}
}

// driveStudies submits each study's jobs, waits for every terminal
// notification, then collects and checks the results before the next
// study.  A unit runs from its submit being sent to its terminal
// notification arriving.
func (r *round) driveStudies(ctx context.Context, cl *client.Client, units []unit, size int, ev *eventLog) {
	for lo := 0; lo < len(units); lo += size {
		study := units[lo:min(lo+size, len(units))]
		sent := make([]time.Time, len(study))
		ids := make([]int64, len(study))
		errs := make([]error, len(study))
		for i, u := range study {
			r.attempted++
			sent[i] = time.Now()
			res, err := cl.Do(ctx, u.cmds[0])
			r.rpcTime += time.Since(sent[i])
			r.rpcs++
			if err == nil {
				if sub, ok := res.(*command.SubmitResult); ok {
					ids[i] = sub.ID
				} else {
					err = fmt.Errorf("reply %T to submit", res)
				}
			}
			errs[i] = err
		}
		r.eventsMissed += ev.awaitTerminal(ctx, cl, ids)
		for i, u := range study {
			if errs[i] != nil {
				continue
			}
			rs := time.Now()
			res, err := cl.Do(ctx, command.Wait{ID: ids[i]})
			r.rpcTime += time.Since(rs)
			r.rpcs++
			if err == nil {
				err = check(u.want[0], res)
			}
			errs[i] = err
		}
		for i, u := range study {
			if errs[i] != nil {
				r.fail(fmt.Errorf("%s: %w", u.cmds[0], errs[i]))
				r.lat = append(r.lat, math.Inf(1))
				continue
			}
			j := ev.job(ids[i])
			r.lat = append(r.lat, ms(j.terminal.Sub(sent[i])))
			if !j.queued.IsZero() && !j.running.IsZero() {
				r.queueWait = append(r.queueWait, ms(j.running.Sub(j.queued)))
				r.run = append(r.run, ms(j.terminal.Sub(j.running)))
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobTimes are the arrival times of one job's notifications.
type jobTimes struct {
	queued, running, terminal time.Time
}

// eventLog timestamps every job notification as it arrives.
type eventLog struct {
	mu     sync.Mutex
	jobs   map[int64]*jobTimes
	notify chan struct{}
	done   chan struct{}
}

func newEventLog(ch <-chan *wire.JobEvent) *eventLog {
	l := &eventLog{jobs: map[int64]*jobTimes{}, notify: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for ev := range ch { // closed when the client closes
			now := time.Now()
			l.mu.Lock()
			j := l.jobLocked(ev.Job)
			switch ev.State {
			case string(command.JobQueued):
				j.queued = now
			case string(command.JobRunning):
				j.running = now
			default:
				j.terminal = now
			}
			l.mu.Unlock()
			select {
			case l.notify <- struct{}{}:
			default:
			}
		}
	}()
	return l
}

// wait returns once the client's event channel has closed.
func (l *eventLog) wait() { <-l.done }

func (l *eventLog) jobLocked(id int64) *jobTimes {
	j := l.jobs[id]
	if j == nil {
		j = &jobTimes{}
		l.jobs[id] = j
	}
	return j
}

func (l *eventLog) job(id int64) jobTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.jobLocked(id)
}

// eventGrace is how long a study waits without any notification before
// it asks status about jobs whose terminal notification is missing.
const eventGrace = time.Second

// awaitTerminal blocks until every submitted job (id != 0) has a
// terminal time.  The daemon drops notifications when a connection's
// queue is full, so a job still missing after eventGrace is resolved
// with status; it returns how many were resolved that way.
func (l *eventLog) awaitTerminal(ctx context.Context, cl *client.Client, ids []int64) int {
	missed := 0
	for {
		var pending []int64
		l.mu.Lock()
		for _, id := range ids {
			if id != 0 && l.jobLocked(id).terminal.IsZero() {
				pending = append(pending, id)
			}
		}
		l.mu.Unlock()
		if len(pending) == 0 {
			return missed
		}
		select {
		case <-l.notify:
			continue
		case <-time.After(eventGrace):
		}
		for _, id := range pending {
			res, err := cl.Do(ctx, command.Status{ID: id})
			st, ok := res.(*command.JobStatusResult)
			if err != nil || !ok {
				continue
			}
			switch st.State {
			case command.JobDone, command.JobFailed, command.JobCancelled:
				l.mu.Lock()
				if j := l.jobLocked(id); j.terminal.IsZero() {
					j.terminal = time.Now()
					missed++
				}
				l.mu.Unlock()
			}
		}
	}
}
