// Command fem2bench is the repository's benchmark: it starts a real
// fem2d daemon, drives it over one connection with one of three seeded
// workloads, checks every answer against an in-process reference, and
// prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics, adding an in-process replay that times each layer's public
// functions.  See README.md for the workloads and metrics.
//
// Usage (from the repository root, after building fem2d):
//
//	fem2bench -workload load-sweep|design-loop|study-batch -seed N \
//	          -seconds S -trace 0|1 [-bin .bench_build/bin/fem2d] [-workdir .bench_build]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// later claims are re-checked on it.
const heldOutSeed = 2027

// minUnits is the fewest units a run measures, so that at least ten
// samples lie beyond p99.
const minUnits = 1000

// minRounds is the fewest fresh set-ups a run makes, so setup_s is a
// median.
const minRounds = 3

// maxStealPct is the host steal share above which a round is set aside:
// the hypervisor, not the program, set its tail.  Undisturbed rounds of
// this host see 0.1–1%.
const maxStealPct = 2.0

// maxExtra bounds how long a run keeps going past its budget to replace
// rounds set aside for steal.
const maxExtra = 10 * time.Second

// A metric is one named, unit-carrying value of the result line.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "how long the timed rounds run")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	bin := flag.String("bin", ".bench_build/bin/fem2d", "the fem2d binary")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for store files and traces")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *bin, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "fem2bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool, bin, workdir string) error {
	ctx := context.Background()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := reference(ctx, w); err != nil {
		return err
	}

	// Timed rounds: each on a fresh daemon, each the same fixed stream,
	// until the budget is spent and enough units and set-ups are in.
	// Rounds the hypervisor stole from are set aside and replaced, for
	// at most maxExtra past the budget; if too few clean rounds remain
	// the metrics use the least stolen.
	need := max(minRounds, (minUnits+w.perRound-1)/w.perRound)
	procs := runtime.GOMAXPROCS(1)
	var all []*round
	clean := 0
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if len(all) >= need && el >= budget && (clean >= need || el >= budget+maxExtra) {
			break
		}
		r, err := runRound(ctx, bin, workdir, w, i)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		all = append(all, r)
		if r.stealPct() <= maxStealPct {
			clean++
		}
		fmt.Fprintf(os.Stderr, "fem2bench: round %d: spin %.1fms setup %.1fms p50 %.3fms wall %.2fs daemon cpu %.2fs steal %.2f%% failed %d\n",
			i, ms(r.spin), ms(r.setup), median(r.lat), r.wall.Seconds(), r.daemonCPU.Seconds(), r.stealPct(), r.failed)
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "fem2bench: round %d: first failure: %v\n", i, r.firstErr)
		}
	}
	runtime.GOMAXPROCS(procs)
	measured := leastStolen(all, need)

	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
	}
	var metrics []metric
	if traced {
		layers, rep, err := perLayer(ctx, w, measured, all, workdir, seed)
		if err != nil {
			return err
		}
		metrics = layers
		attempted += rep.units
		failed += rep.failed
	} else {
		metrics = endToEnd(measured)
	}
	printProvenance(w, seed, all, len(all)-len(measured))
	return printResult(attempted, failed, metrics)
}

// leastStolen returns the rounds the metrics use: every round whose
// steal is at most maxStealPct or, when fewer than need are, the need
// rounds with the least steal.
func leastStolen(rs []*round, need int) []*round {
	var clean []*round
	for _, r := range rs {
		if r.stealPct() <= maxStealPct {
			clean = append(clean, r)
		}
	}
	if len(clean) >= need {
		return clean
	}
	sorted := slices.Clone(rs)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].stealPct() < sorted[b].stealPct() })
	return sorted[:need]
}

// stealPct is the host's steal share, in percent, over the round's
// measured phase.
func (r *round) stealPct() float64 { return stealPct([]*round{r}) }

// stealPct is the host's steal share, in percent, over the measured
// phases of rs.
func stealPct(rs []*round) float64 {
	var steal, total int64
	for _, r := range rs {
		steal += r.host1.steal - r.host0.steal
		total += r.host1.total - r.host0.total
	}
	return 100 * ratio(float64(steal), float64(total))
}

// hostSpinMS is the median of the rounds' host speed probes, in ms.
func hostSpinMS(rs []*round) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, ms(r.spin))
	}
	return median(xs)
}

// endToEnd derives the user-visible metrics: latency percentiles over
// every unit of every round, the rest as medians over rounds.
func endToEnd(rs []*round) []metric {
	var lat, setup, tput, cpu, mem []float64
	for _, r := range rs {
		lat = append(lat, r.lat...)
		setup = append(setup, r.setup.Seconds())
		tput = append(tput, float64(r.attempted-r.failed)/r.wall.Seconds())
		cpu = append(cpu, ms(r.daemonCPU)/float64(r.attempted))
		mem = append(mem, float64(r.hwm)/(1<<20))
	}
	return []metric{
		{"setup_s", median(setup), "s", len(setup)},
		{"latency_p50_ms", quantile(lat, 0.50), "ms", len(lat)},
		{"latency_p99_ms", quantile(lat, 0.99), "ms", len(lat)},
		{"throughput_per_s", median(tput), "1/s", len(tput)},
		{"cpu_ms_per_op", median(cpu), "ms", len(cpu)},
		{"mem_peak_mb", median(mem), "MB", len(mem)},
	}
}

// perLayer derives the layer metrics: daemon counters and notification
// timings from the timed rounds, span totals from a traced in-process
// replay, and runtime figures from an untraced one.
//
// The counters come from the measured rounds; the validity figures
// (steal, connection errors, missed notifications) from all of them.
func perLayer(ctx context.Context, w *workload, rs, all []*round, workdir string, seed int64) ([]metric, *replayed, error) {
	var err error
	d := newStatDelta()
	var units, rpcs, connErrs, missed int
	var rpcTime, wall, gen time.Duration
	var growth int64
	var wait, run []float64
	for _, r := range rs {
		d.add(r.before, r.after)
		units += r.attempted
		rpcs += r.rpcs
		rpcTime += r.rpcTime
		wall += r.wall
		gen += r.genCPU
		growth += r.storeGrowth
		wait = append(wait, r.queueWait...)
		run = append(run, r.run...)
	}
	for _, r := range all {
		connErrs += r.connErrors
		missed += r.eventsMissed
	}
	u := float64(units)
	reqN, reqNS := d.family("server.request.", "server.request.stats")
	requestUS := ratio(float64(reqNS)/1e3, float64(reqN))
	hits, refactors := float64(d.counter["factor.hits"]), float64(d.counter["factor.refactors"])
	_, busyNS := d.family("job.latency.", "job.latency.solve.")
	workers := float64(d.gauge["job.workers"])

	// The first untraced replay only warms the process (heap size, GC
	// pacing), so the untraced and traced replays that count start from
	// the same state.
	storePath := filepath.Join(workdir, fmt.Sprintf("replay-%d.db", os.Getpid()))
	var plain *replayed
	for range 2 {
		if plain, err = replay(ctx, w, storePath, nil); err != nil {
			return nil, nil, err
		}
	}
	tr := &tracer{t0: time.Now()}
	traced, err := replay(ctx, w, storePath, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(traceFile(workdir, w.name, seed)); err != nil {
		return nil, nil, err
	}
	lay := func(name string) layerTime {
		if l := traced.layers[name]; l != nil {
			return *l
		}
		return layerTime{}
	}
	do, self := lay("auvm.Session.Do"), lay("auvm.self")
	factor := lay("linalg.DirectPlan.Refactor")
	tu := float64(traced.units)
	printBudget(traced)

	out := []metric{
		{"server.request_us", requestUS, "us", int(reqN)},
		{"server.outside_us", ratio(float64(rpcTime)/1e3, float64(rpcs)) - requestUS, "us", rpcs},
		{"factor.hit_ratio", ratio(hits, hits+refactors), "ratio", int(hits + refactors)},
		{"factor.refactors_per_op", refactors / u, "count", units},
		{"store.put_us", d.meanUS("store.put"), "us", int(d.count["store.put"])},
		{"store.get_us", d.meanUS("store.get"), "us", int(d.count["store.get"])},
		{"store.batch_us", d.meanUS("store.batch"), "us", int(d.count["store.batch"])},
		{"store.bytes_per_op", float64(growth) / u, "B", units},
		{"job.queue_wait_p50_ms", quantile(wait, 0.50), "ms", len(wait)},
		{"job.queue_wait_p99_ms", quantile(wait, 0.99), "ms", len(wait)},
		{"job.run_p50_ms", quantile(run, 0.50), "ms", len(run)},
		{"job.busy_ratio", ratio(float64(busyNS), workers*float64(wall)), "ratio", len(rs)},
		{"harness.steal_pct", stealPct(all), "%", len(all)},
		{"harness.host_spin_ms", hostSpinMS(all), "ms", len(all)},
		{"harness.gen_cpu_ms_per_op", ms(gen) / u, "ms", units},
		{"harness.conn_errors", float64(connErrs), "count", len(all)},
		{"harness.events_missed", float64(missed), "count", len(all)},

		{"wire.codec_us", lay("wire.codec").meanUS(), "us", lay("wire.codec").calls},
		{"wire.bytes_per_op", float64(traced.wireBytes) / tu, "B", traced.units},
		{"command.codec_us", lay("command.codec").meanUS(), "us", lay("command.codec").calls},
		{"auvm.self_us", self.meanUS(), "us", self.calls},
		{"fem.symbolic_us", lay("fem.NewWorkspace").meanUS(), "us", lay("fem.NewWorkspace").calls},
		{"fem.numeric_us", lay("fem.Workspace.Assemble").meanUS(), "us", lay("fem.Workspace.Assemble").calls},
		{"fem.stresses_us", lay("fem.Stresses").meanUS(), "us", lay("fem.Stresses").calls},
		{"fem.substructure_ms", lay("fem.Solve.substructured").meanUS() / 1e3, "ms", lay("fem.Solve.substructured").calls},
		{"linalg.factor_us", factor.meanUS(), "us", factor.calls},
		{"linalg.factor_flops", ratio(float64(traced.factorFlops), float64(factor.calls)), "flops", factor.calls},
		{"linalg.profile_nnz", ratio(float64(traced.profileNNZ), float64(factor.calls)), "count", factor.calls},
		{"linalg.solve_us", lay("linalg.DirectPlan.SolveInto").meanUS(), "us", lay("linalg.DirectPlan.SolveInto").calls},
		{"linalg.cg_iterations", ratio(float64(traced.cgIters), float64(traced.cgSolves)), "count", traced.cgSolves},
		{"navm.parallel_solve_ms", lay("fem.Solve.parallel").meanUS() / 1e3, "ms", lay("fem.Solve.parallel").calls},
		{"navm.sim_cycles_per_op", float64(traced.simCycles) / tu, "cycles", traced.units},
		{"go.alloc_kb_per_op", float64(plain.allocBytes) / 1024 / float64(plain.units), "KB", plain.units},
		{"go.gc_per_kop", 1000 * float64(plain.gcs) / float64(plain.units), "count", plain.units},
		{"go.live_bytes_per_op", float64(plain.liveGrowth) / float64(plain.units), "B", plain.units},
		{"harness.unattributed_pct", 100 * ratio(float64(self.total), float64(do.total)), "%", do.calls},
		{"harness.trace_overhead_pct", 100 * ratio(float64(do.total-plain.doTime), float64(plain.doTime)), "%", do.calls},
	}
	plain.units += traced.units
	plain.failed += traced.failed
	return out, plain, nil
}

// printBudget prints where a traced unit's time went, layer by layer,
// as comment lines.
func printBudget(r *replayed) {
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# traced replay: %d units; per-unit time by span (us):\n", r.units)
	for _, n := range names {
		l := r.layers[n]
		fmt.Printf("#   %-30s %10.1f  (%d calls)\n", n, float64(l.total)/1e3/float64(r.units), l.calls)
	}
}

// provenance records what was measured and on what.
type provenance struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	HeldOutSeed int64    `json:"held_out_seed"`
	Commit      string   `json:"commit"`
	SourceHash  string   `json:"source_sha256"`
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	DaemonFlags []string `json:"daemon_flags"`
	Rounds      int      `json:"rounds"`
	SetAside    int      `json:"rounds_set_aside"`
	UnitsPer    int      `json:"units_per_round"`
	StealPct    float64  `json:"harness.steal_pct"`
	HostSpinMS  float64  `json:"harness.host_spin_ms"`
}

func printProvenance(w *workload, seed int64, rs []*round, aside int) {
	p := provenance{
		Workload: w.name, Seed: seed, HeldOutSeed: heldOutSeed,
		Commit: commit(), SourceHash: sourceHash(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonFlags: append([]string{"-addr", "127.0.0.1:0", "-quiet"}, daemonArgs(w, "<round>.db")...),
		Rounds:      len(rs), SetAside: aside, UnitsPer: w.perRound,
		StealPct: stealPct(rs), HostSpinMS: hostSpinMS(rs),
	}
	b, _ := json.Marshal(p)
	fmt.Printf("# provenance %s\n", b)
}

// commit is the checkout's git commit, when it is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the program's Go sources and go.mod, so a result
// names the code it measured even outside git.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "fem2bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// failedValue stands in for an infinite percentile (more than 1% of
// units failed), which JSON cannot carry.
const failedValue = 1e9

func printResult(attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = failedValue
		}
		fmt.Printf("# %-28s %14.6g %-6s n=%d\n", m.name, v, m.unit, m.samples)
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
