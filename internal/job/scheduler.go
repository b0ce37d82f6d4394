package job

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"time"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrClosed is returned by Submit after the scheduler shuts down.
var ErrClosed = errors.New("job: scheduler closed")

// Executor runs one typed command — auvm.Session satisfies it, and the
// scheduler never needs to know about sessions beyond this.  A job's Do
// is invoked on a worker goroutine (inline on the submitter's goroutine
// for cheap commands); the context it receives is the job's own
// cancellable context, carrying a per-job metrics collector.
type Executor interface {
	Do(ctx context.Context, cmd command.Command) (command.Result, error)
}

// job is one unit of work.  Lifecycle fields are guarded by the
// scheduler's mutex; the immutable identity fields are set at submit
// time and never written again.
type job struct {
	id     JobID
	owner  string
	model  string
	cmd    command.Command
	ex     Executor
	ctx    context.Context
	cancel context.CancelFunc

	// attempt is the auto-resubmission generation (0 = user-submitted),
	// immutable after submit like the identity fields above.
	attempt int

	// Guarded by Scheduler.mu.
	state              State
	res                command.Result
	err                error
	ops, flops, cycles int64
	// lost marks a record recovered as "lost to restart"; resubmitted
	// marks a lost record ResubmitLost has already requeued, so a
	// crash-restart loop never requeues the same record twice.
	lost, resubmitted bool
	// done is closed exactly once, when the job reaches a terminal
	// state.
	done chan struct{}
}

// Scheduler is the multi-tenant job service: a bounded worker pool over
// a queue of submitted commands, with per-model serialization and full
// job bookkeeping.  All methods are safe for concurrent use by any
// number of sessions.
type Scheduler struct {
	workers int
	shared  *metrics.Collector

	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	closed  bool
	next    int64
	jobs    map[JobID]*job
	// order remembers submission order for retention eviction.
	order []JobID
	// retain bounds the job records kept: when the map outgrows it, the
	// oldest terminal jobs are evicted (live jobs never are).
	retain int
	queue  []*job
	// busy holds the model names currently locked by a running job; a
	// queued job whose key is busy is skipped until the key frees.
	busy map[string]bool
	// live counts each owner's queued-or-running jobs; liveTotal is
	// their sum.  quota bounds live per owner when positive, with policy
	// choosing reject-vs-queue at the bound (see tenant.go).
	live      map[string]int
	liveTotal int
	quota     int
	policy    QuotaPolicy
	// subs are the job-event subscribers, keyed by registration id.
	subs    map[int]func(Snapshot)
	subNext int
	// caches carries one direct-solve factor cache per model name —
	// the companion of the per-model lock: the lock serializes solves on
	// one model, the cache makes every solve after the first warm,
	// whichever session submitted it.  cacheOrder remembers creation
	// order for eviction past maxModelCaches.
	caches     map[string]*linalg.FactorCache
	cacheOrder []string
	// journal, when non-nil, persists job records through the system's
	// store (see journal.go): queued at submit, terminal at finish, and
	// flushed before retention eviction.
	journal store.Store
	// journalErrs counts journal writes that failed.  A journal failure
	// never takes down the scheduler — the write is logged through logf
	// and the job carries on — but the count surfaces the rot.
	journalErrs int64
	// epoch, when non-nil, reports the cluster lease epoch this daemon
	// holds (see internal/cluster); journal records are stamped with it
	// so a takeover can tell which leadership stint wrote what.
	epoch func() int64
	logf  func(format string, args ...any)
	wg    sync.WaitGroup

	// obs is the live-metrics registry (SetObs); the resolved metrics
	// below are nil no-op sinks until it is installed, so a bare
	// scheduler observes for free.  Counters are resolved once here and
	// observed lock-free on the hot path.
	obs              *obs.Registry
	mSubmitted       *obs.Counter
	mDone            *obs.Counter
	mFailed          *obs.Counter
	mCancelled       *obs.Counter
	mQuotaRejected   *obs.Counter
	mJournalErrs     *obs.Counter
	mFactorEvictions *obs.Counter
	gQueueDepth      *obs.Gauge
	gRunning         *obs.Gauge
	gWorkers         *obs.Gauge
}

// maxModelCaches bounds the per-model factor caches a scheduler keeps;
// past it, the oldest cache whose model is not busy is dropped (a
// dropped cache only costs the next solve a refactor).
const maxModelCaches = 64

// DefaultRetainedJobs bounds the job history a scheduler keeps by
// default — enough for any interactive or test workload while keeping a
// long-lived multi-tenant service's memory flat.
const DefaultRetainedJobs = 4096

// NewScheduler returns a scheduler whose pool is bounded at workers
// goroutines (<= 0 selects GOMAXPROCS).  Worker goroutines start lazily
// on the first heavy submission, so a scheduler that only ever sees
// synchronous traffic costs nothing.  shared, which may be nil, receives
// a forwarded copy of every job's metrics (see metrics.Tee).
func NewScheduler(workers int, shared *metrics.Collector) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers: workers,
		shared:  shared,
		retain:  DefaultRetainedJobs,
		jobs:    map[JobID]*job{},
		busy:    map[string]bool{},
		live:    map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers returns the pool bound.
func (s *Scheduler) Workers() int { return s.workers }

// SetEpochSource wires the cluster lease epoch into journal records.
// f is called under the scheduler lock at each journal write, so it
// must be cheap and non-blocking (cluster.Coordinator.Epoch is both).
// Nil reverts to unstamped records.
func (s *Scheduler) SetEpochSource(f func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = f
}

// SetObs routes the scheduler's live metrics through reg (see
// internal/obs and docs/observability.md for the catalog).  Metric
// pointers are resolved once here; nil reg leaves them as no-op sinks.
// Call before traffic — typically right after NewScheduler.
func (s *Scheduler) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = reg
	s.mSubmitted = reg.Counter(obs.JobSubmitted)
	s.mDone = reg.Counter(obs.JobDone)
	s.mFailed = reg.Counter(obs.JobFailed)
	s.mCancelled = reg.Counter(obs.JobCancelled)
	s.mQuotaRejected = reg.Counter(obs.JobQuotaRejected)
	s.mJournalErrs = reg.Counter(obs.JobJournalErrors)
	s.mFactorEvictions = reg.Counter(obs.FactorEvictions)
	s.gQueueDepth = reg.Gauge(obs.JobQueueDepth)
	s.gRunning = reg.Gauge(obs.JobRunning)
	s.gWorkers = reg.Gauge(obs.JobWorkers)
	s.gWorkers.Set(int64(s.workers))
	for _, fc := range s.caches {
		fc.Instrument(reg.Counter(obs.FactorHits), reg.Counter(obs.FactorMisses), reg.Counter(obs.FactorRefactors))
	}
}

// syncQueueGaugeLocked publishes the current heavy-queue length.  Jobs
// cancelled while queued stay in the slice until a worker pops past
// them, so the gauge can briefly overcount by the cancelled stragglers.
func (s *Scheduler) syncQueueGaugeLocked() {
	s.gQueueDepth.Set(int64(len(s.queue)))
}

// SetLogf installs the scheduler's diagnostic log sink (the daemon's
// logger).  Only journal failures and resubmission activity log; nil
// silences them.
func (s *Scheduler) SetLogf(f func(format string, args ...any)) {
	s.mu.Lock()
	s.logf = f
	s.mu.Unlock()
}

// logfLocked logs through the installed sink, if any.
func (s *Scheduler) logfLocked(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// JournalErrors reports how many journal writes have failed since the
// scheduler started — the scheduler survives every one of them, so the
// count is the only trace short of the log.
func (s *Scheduler) JournalErrors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErrs
}

// SetRetention rebounds the retained job history (<= 0 keeps everything
// — unbounded, test use only).  Ids evicted by retention answer
// ErrNotFound from Status/Wait/Cancel.
func (s *Scheduler) SetRetention(n int) {
	s.mu.Lock()
	s.retain = n
	s.evictLocked()
	s.mu.Unlock()
}

// evictLocked drops the oldest terminal job records until the map is
// back within the retention bound.  Live (queued/running) jobs are
// never evicted, so under a burst the map can exceed the bound by the
// number of in-flight jobs.
func (s *Scheduler) evictLocked() {
	if s.retain <= 0 || len(s.jobs) <= s.retain {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > s.retain && j.state.Terminal() {
			// Flush the record to the journal before dropping it from
			// memory, so history survives eviction (and restart): Status
			// and Wait keep answering for evicted ids via the journal.
			s.persistLocked(j)
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// notFound builds the taxonomy error for an unknown job id.
func notFound(id JobID) error {
	return fmt.Errorf("job: no %s: %w", id, errs.ErrNotFound)
}

// Submit registers cmd as a job owned by owner and executed by ex.
// Heavy commands (see Heavy) are enqueued for the worker pool and Submit
// returns their JobID immediately; cheap commands run inline on the
// caller's goroutine — synchronously, but under the same job record, so
// Status and Wait work uniformly.  An inline command that touches a
// model a running job holds waits its turn, but never past its context:
// once ctx is done the job finalizes Cancelled and Submit returns.  The
// job runs under a context derived from ctx: cancelling ctx, like
// Cancel, cancels the job.  Job-control commands cannot themselves run
// as jobs.  When a per-owner quota is set (SetQuota), an owner at the
// in-flight bound is rejected with ErrQuota or blocked until a slot
// frees, by policy.
func (s *Scheduler) Submit(ctx context.Context, owner string, ex Executor, cmd command.Command) (JobID, error) {
	return s.submit(ctx, owner, ex, cmd, 0)
}

// submit is Submit with the resubmission generation threaded through —
// ResubmitLost requeues lost jobs at attempt n+1.
func (s *Scheduler) submit(ctx context.Context, owner string, ex Executor, cmd command.Command, attempt int) (JobID, error) {
	if cmd == nil || ex == nil {
		return 0, errs.Usage("submit needs a command and an executor")
	}
	cmd = command.Value(cmd)
	switch cmd.(type) {
	case command.Submit, command.Status, command.Wait, command.Cancel, command.Jobs, command.Quit:
		return 0, errs.Usage("%q cannot run as a job", cmd)
	}
	if err := errs.Cancelled(ctx); err != nil {
		return 0, err
	}

	jctx, cancel := context.WithCancel(ctx)
	j := &job{
		owner: owner, model: ModelOf(cmd), cmd: cmd, ex: ex,
		ctx: jctx, cancel: cancel, attempt: attempt,
		state: Queued, done: make(chan struct{}),
	}

	s.mu.Lock()
	if err := s.admitLocked(ctx, owner); err != nil {
		if errors.Is(err, ErrQuota) {
			s.mQuotaRejected.Inc()
		}
		s.mu.Unlock()
		cancel()
		return 0, err
	}
	s.mSubmitted.Inc()
	s.next++
	j.id = JobID(s.next)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.live[owner]++
	s.liveTotal++
	s.evictLocked()
	s.persistLocked(j) // journal the submission; terminal write overtakes it
	s.publishLocked(j)
	if Heavy(cmd) {
		s.startWorkersLocked()
		s.queue = append(s.queue, j)
		s.syncQueueGaugeLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
		return j.id, nil
	}
	s.mu.Unlock()
	s.runInline(j)
	return j.id, nil
}

// startWorkersLocked launches the pool on first use.
func (s *Scheduler) startWorkersLocked() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker is one pool goroutine: pop a runnable job, execute it, release
// its model, repeat until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			if j = s.popLocked(); j != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.state = Running
		s.gRunning.Add(1)
		if j.model != "" {
			s.busy[j.model] = true
		}
		s.publishLocked(j)
		s.mu.Unlock()

		s.execute(j)

		s.mu.Lock()
		if j.model != "" {
			delete(s.busy, j.model)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// popLocked removes and returns the first queued job whose model is not
// busy, dropping jobs cancelled while they waited.
func (s *Scheduler) popLocked() *job {
	defer s.syncQueueGaugeLocked()
	for i := 0; i < len(s.queue); i++ {
		j := s.queue[i]
		if j.state != Queued {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			i--
			continue
		}
		if j.model == "" || !s.busy[j.model] {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return j
		}
	}
	return nil
}

// runInline executes a cheap job on the caller's goroutine.  It still
// honours the model lock — an inline model edit queues behind a running
// solve on the same model rather than racing it — and a cancel (or the
// job context's own deadline) delivered while waiting wins: the job
// finalizes Cancelled instead of blocking the submitter past its ctx.
func (s *Scheduler) runInline(j *job) {
	s.mu.Lock()
	if j.model != "" && s.busy[j.model] {
		// The cond has no ctx case of its own; wake the wait loop when
		// the job's context dies so the submitter is never stuck behind
		// a long solve it no longer wants to wait for.
		stop := context.AfterFunc(j.ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
		for s.busy[j.model] && j.state == Queued && j.ctx.Err() == nil {
			s.cond.Wait()
		}
	}
	if j.state != Queued { // cancelled (or closed) while waiting
		s.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil { // submit ctx died while waiting for the model
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return
	}
	j.state = Running
	s.gRunning.Add(1)
	if j.model != "" {
		s.busy[j.model] = true
	}
	s.publishLocked(j)
	s.mu.Unlock()

	s.execute(j)

	s.mu.Lock()
	if j.model != "" {
		delete(s.busy, j.model)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// FactorCache returns the scheduler's shared direct-solve factor cache
// for one model name, creating it on first use.  Every heavy job on
// that model runs under a context carrying this cache, so N queued
// solves on one model factor once and the rest ride the warm factor —
// across sessions, since the key is the model name, not the workspace
// copy.
func (s *Scheduler) FactorCache(model string) *linalg.FactorCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.caches == nil {
		s.caches = map[string]*linalg.FactorCache{}
	}
	fc, ok := s.caches[model]
	if !ok {
		if len(s.caches) >= maxModelCaches {
			for i, name := range s.cacheOrder {
				if !s.busy[name] {
					delete(s.caches, name)
					s.cacheOrder = append(s.cacheOrder[:i], s.cacheOrder[i+1:]...)
					s.mFactorEvictions.Inc()
					break
				}
			}
		}
		fc = &linalg.FactorCache{}
		if s.obs != nil {
			fc.Instrument(s.obs.Counter(obs.FactorHits), s.obs.Counter(obs.FactorMisses), s.obs.Counter(obs.FactorRefactors))
		}
		s.caches[model] = fc
		s.cacheOrder = append(s.cacheOrder, model)
	}
	return fc
}

// CacheableSolve reports whether cmd is a solve the per-model factor
// cache can serve: a sequential direct-backend solve with no
// preconditioner.  Iterative, parallel, and substructured solves have
// no factor to retain, so attaching a cache for them would only create
// empty entries that crowd warm ones out of the bounded cache map.
func CacheableSolve(cmd command.Command) bool {
	sc, ok := command.Value(cmd).(command.Solve)
	if !ok || sc.Parallel > 0 || sc.Substructures > 0 {
		return false
	}
	if sc.Precond != "" && sc.Precond != "none" {
		return false
	}
	_, direct := linalg.PlanOptsFor(string(sc.Method))
	return direct
}

// execute runs the job's command and stores its terminal state.  The
// executor sees a context carrying a per-job Tee collector, so AUVM
// operation counts land on the job and on the shared system collector
// alike; solver flops and machine cycles come back on the typed result.
// Cacheable direct solves additionally carry the model's shared factor
// cache.
func (s *Scheduler) execute(j *job) {
	mc := metrics.Tee(s.shared)
	ctx := metrics.NewContext(j.ctx, mc)
	if j.model != "" && CacheableSolve(j.cmd) {
		ctx = linalg.NewFactorCacheContext(ctx, s.FactorCache(j.model))
	}
	start := time.Now()
	res, err := j.ex.Do(ctx, j.cmd)
	elapsed := time.Since(start)
	j.cancel()

	state := Done
	if err != nil {
		state = Failed
		if errors.Is(err, errs.ErrCancelled) {
			state = Cancelled
		}
	}
	s.obs.Histogram(obs.JobLatencyPrefix + command.Verb(j.cmd)).Observe(elapsed)
	s.gRunning.Add(-1)
	switch state {
	case Done:
		s.mDone.Inc()
	case Failed:
		s.mFailed.Inc()
	case Cancelled:
		s.mCancelled.Inc()
	}
	s.mu.Lock()
	j.state = state
	j.res, j.err = res, err
	j.ops = mc.Get(metrics.LevelAUVM, metrics.CtrOps)
	if sr, ok := res.(*command.SolveResult); ok {
		j.flops = sr.Flops
		j.cycles = sr.Makespan
	}
	close(j.done)
	s.finishLocked(j)
	s.mu.Unlock()
}

// Status returns a snapshot of one job.  Ids retention has evicted
// from memory are answered from the journal when one is attached.
func (s *Scheduler) Status(id JobID) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		snap := s.snapshotLocked(j)
		s.mu.Unlock()
		return snap, nil
	}
	s.mu.Unlock()
	if j, ok := s.journalLookup(id); ok {
		return s.snapshotLocked(j), nil
	}
	return Snapshot{}, notFound(id)
}

// snapshotLocked copies a job's current state.
func (s *Scheduler) snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Owner: j.owner, Cmd: j.cmd, Model: j.model,
		State: j.state, Result: j.res, Err: j.err,
		Ops: j.ops, Flops: j.flops, Cycles: j.cycles,
		Attempt: j.attempt,
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns the stored result and error — for a Done job, exactly what
// the synchronous command would have returned; for a cancelled job, an
// error wrapping errs.ErrCancelled.
func (s *Scheduler) Wait(ctx context.Context, id JobID) (command.Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		// An evicted terminal job is already finished: answer its stored
		// outcome from the journal immediately.
		if j, ok := s.journalLookup(id); ok {
			return j.res, j.err
		}
		return nil, notFound(id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		// select picks at random among ready cases: a job that has
		// already finished answers with its result, not the cancel.
		select {
		case <-j.done:
		default:
			return nil, errs.Cancelled(ctx)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.res, j.err
}

// Cancel stops a job: a queued job is cancelled outright; a running job
// has its context cancelled, which the solver kernels poll, so it
// reaches Cancelled shortly (or Done if completion won the race).  The
// returned state is the job's state after the attempt — Cancelled,
// Running for an in-flight stop, or the terminal state of a job that had
// already finished.
func (s *Scheduler) Cancel(id JobID) (State, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		// An evicted job is terminal; cancelling it reports its state.
		if j, ok := s.journalLookup(id); ok {
			return j.state, nil
		}
		return 0, notFound(id)
	}
	switch j.state {
	case Queued:
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return Cancelled, nil
	case Running:
		s.mu.Unlock()
		j.cancel()
		return Running, nil
	default:
		st := j.state
		s.mu.Unlock()
		return st, nil
	}
}

// cancelQueuedLocked finalizes a job that never ran.
func (s *Scheduler) cancelQueuedLocked(j *job) {
	j.state = Cancelled
	s.mCancelled.Inc()
	j.err = fmt.Errorf("%w: %s cancelled before it started", errs.ErrCancelled, j.id)
	close(j.done)
	j.cancel()
	s.finishLocked(j)
}

// CancelOwner cancels every live (queued or running) job of one user and
// returns how many it touched — session teardown's bulk cancel.
func (s *Scheduler) CancelOwner(owner string) int {
	s.mu.Lock()
	var running []*job
	n := 0
	for _, j := range s.jobs {
		if j.owner != owner {
			continue
		}
		switch j.state {
		case Queued:
			s.cancelQueuedLocked(j)
			n++
		case Running:
			running = append(running, j)
			n++
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	return n
}

// List returns snapshots of the jobs matching f, ascending id.
func (s *Scheduler) List(f Filter) []Snapshot {
	s.mu.Lock()
	out := make([]Snapshot, 0, len(s.jobs))
	for _, j := range s.jobs {
		if snap := s.snapshotLocked(j); f.match(snap) {
			out = append(out, snap)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Close shuts the scheduler down: queued jobs are cancelled, running
// jobs have their contexts cancelled, workers drain and exit, and
// further Submits return ErrClosed.  Close blocks until the pool is
// gone; it is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var running []*job
	for _, j := range s.jobs {
		switch j.state {
		case Queued:
			s.cancelQueuedLocked(j)
		case Running:
			running = append(running, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	s.wg.Wait()
}
