// Command perfbench is XSACT's benchmark: one seeded workload per run,
// measured end to end through the serving stack, with every response
// checked against an oracle. With --trace 1 it instead replays the
// workload's operations traced, and reports per-module numbers.
//
//	go run . --workload explore-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result JSON; the line before
// it carries provenance, sample counts, self-check counters and the
// metrics outside the result's fixed set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	movies   int
	clients  int // the workload's closed-loop clients, at most the CPU count
	setups   int
	out      string
	// minSamples is the per-operation sample floor a run must reach.
	minSamples int
	// corrupt flips one response fingerprint before the oracle runs, so
	// tests can show a wrong response fails the run.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's outcome: the result line plus the detail line.
type report struct {
	res    result
	info   map[string]any
	checks []string // oracle mismatches and failed self-checks
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced replay with per-module metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.movies, cfg.setups, cfg.minSamples = 5000, 3, 1000
	cfg.out = filepath.Join(".bench_build", "perfbench")
	w := workloadNamed(cfg.workload)
	if w == nil || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.clients = min(w.clients, runtime.NumCPU())
	return runConfig(cfg, w, stdout, stderr)
}

// runConfig runs one validated configuration, prints the detail and
// result lines, and returns the exit code: 0 correct, 1 an oracle
// mismatch or failed self-check, 2 the run could not be made.
func runConfig(cfg config, w *workload, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep *report
	var err error
	if cfg.trace {
		rep, err = traceRun(cfg, w)
	} else {
		rep, err = measureRun(cfg, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep.res.Correct = len(rep.checks) == 0
	rep.info["checks"] = rep.checks
	rep.info["provenance"] = provenance(cfg, w)
	printHuman(stderr, w, rep)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"perfbench": rep.info}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := enc.Encode(rep.res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !rep.res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printHuman(w io.Writer, wl *workload, rep *report) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed, correct=%v\n", wl.name, rep.res.Attempted, rep.res.Failed, len(rep.checks) == 0)
	names := make([]string, 0, len(rep.res.Metrics))
	for k := range rep.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, rep.res.Metrics[k].Value, rep.res.Metrics[k].Unit)
	}
	for _, c := range rep.checks {
		fmt.Fprintln(w, "  FAIL:", c)
	}
}

// timedSetups sets the workload's stack up cfg.setups times from the
// XML bytes and returns the last stack, the median set-up seconds, and
// the heap the stack holds: live heap bytes after forced collections,
// over the pre-set-up baseline. (HeapInuse, which counts whole spans,
// reads up to 5 MB apart between identical runs; HeapAlloc does not.)
func timedSetups(cfg config, w *workload, c *corpus, env *setupEnv) (*stack, float64, float64, error) {
	var ms runtime.MemStats
	settleHeap(&ms)
	baseline := ms.HeapAlloc
	var times []float64
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := w.setup(c, env)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		st = s
	}
	settleHeap(&ms)
	heap := (float64(ms.HeapAlloc) - float64(baseline)) / (1 << 20)
	return st, median(times), heap, nil
}

// settleHeap reads the heap after two forced collections: the second
// frees what only the first emptied, such as sync.Pool victim caches.
func settleHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// hotWarmOps runs every popular-hot query and selection once, so a
// measurement starts with the working set cached. The second ranked
// page sees the query cached by the doc-order page.
func hotWarmOps(hot []hotQuery) []op {
	var ops []op
	for _, h := range hot {
		ops = append(ops, op{kind: opRanked, query: h.query}, op{kind: opPage, query: h.query},
			op{kind: opRanked, query: h.query}, h.sels[0], h.sels[1])
	}
	return ops
}

func warmDuration(seconds float64) time.Duration {
	d := time.Duration(seconds * 0.1 * float64(time.Second))
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// prepare generates the run's inputs and writes live-write's snapshot.
func prepare(cfg config, w *workload) (*corpus, []hotQuery, *setupEnv, func(), error) {
	c := makeCorpus(cfg.seed, cfg.movies)
	var hot []hotQuery
	if w.hot {
		if hot = c.hotSet(rand.New(rand.NewSource(cfg.seed))); len(hot) == 0 {
			return nil, nil, nil, nil, fmt.Errorf("corpus too small for %s", w.name)
		}
	}
	env := &setupEnv{}
	cleanup := func() {}
	if w.stack == stackLive {
		env.snapPath = filepath.Join(cfg.out, fmt.Sprintf("live-seed%d-pid%d.snap", cfg.seed, os.Getpid()))
		if err := writeSnapshot(c, env.snapPath); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("write snapshot: %w", err)
		}
		cleanup = func() { os.Remove(env.snapPath) }
	}
	return c, hot, env, cleanup, nil
}

// measureRun is the untraced run behind the end-to-end metrics.
func measureRun(cfg config, w *workload) (*report, error) {
	c, hot, env, cleanup, err := prepare(cfg, w)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	st, setupS, heapMB, err := timedSetups(cfg, w, c, env)
	if err != nil {
		return nil, err
	}
	defer st.close()

	clients := []*client{{s: newStream(w, c, hot, 0), st: st}}
	if cfg.clients > 1 {
		clients[0].writer = &client{st: st}
		clients = append(clients, clients[0].writer)
	}
	warm := &client{st: st}
	for _, o := range hotWarmOps(hot) {
		warm.do(o)
	}
	runPhase(clients, warmDuration(cfg.seconds), false)
	m0, legs0 := st.eng.Metrics(), legCalls(st)
	elapsed := runPhase(clients, time.Duration(cfg.seconds*float64(time.Second)), true)
	m1, legs1 := st.eng.Metrics(), legCalls(st)

	rep := &report{info: map[string]any{"workload": w.name, "mode": "measure"}}
	var recs []record
	recs = append(recs, warm.recs...)
	var ops, attempted, failed int
	for _, cl := range clients {
		recs = append(recs, cl.recs...)
		attempted += cl.attempted
		failed += cl.failed
		for k := range cl.lat {
			ops += len(cl.lat[k])
		}
		for _, e := range cl.errs {
			rep.checks = append(rep.checks, "op failed: "+e)
		}
	}
	ranked := latencies(clients, opRanked)
	pages := latencies(clients, opPage)
	compares := latencies(clients, opCompare)
	writes := latencies(clients, opAdd, opRemove)
	ms := func(v float64) metric { return metric{v, "ms"} }
	rep.res = result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {float64(ops) / elapsed.Seconds(), "1/s"},
		"ranked_p50_ms":  ms(percentileMS(ranked, 0.50)),
		"page_p50_ms":    ms(percentileMS(pages, 0.50)),
		"compare_p50_ms": ms(percentileMS(compares, 0.50)),
		"heap_mb":        {heapMB, "MB"},
	}}

	ctr := countersOf(m1).minus(countersOf(m0)).metrics(ops, legs1-legs0)
	rep.info["counters"] = ctr
	// The p99s are reported, not bounded: on a shared host they follow
	// the CPU time the host takes from the process (the same seed read
	// explore-cold ranked p99 1.12-1.58 ms as steal went from 1% to 8%),
	// while the p50s hardly move.
	rep.info["extra"] = map[string]metric{
		"ranked_p99_ms":  ms(percentileMS(ranked, 0.99)),
		"page_p99_ms":    ms(percentileMS(pages, 0.99)),
		"compare_p99_ms": ms(percentileMS(compares, 0.99)),
		"write_p50_ms":   ms(percentileMS(writes, 0.50)),
		"write_p99_ms":   ms(percentileMS(writes, 0.99)),
		"failed_op_frac": {float64(failed) / float64(max(attempted, 1)), "frac"},
	}
	rep.info["samples"] = map[string]int{
		"setup_s": cfg.setups, "ops_per_s": ops,
		"ranked": len(ranked), "page": len(pages), "compare": len(compares), "write": len(writes),
	}
	rep.info["measured_s"] = elapsed.Seconds()
	rep.checks = append(rep.checks, selfCheck(cfg, w, ctr, len(ranked), len(pages), len(compares), len(writes))...)

	if cfg.corrupt {
		for i := range recs {
			if w.checked(recs[i].o.query) {
				recs[i].fp ^= 1
				break
			}
		}
	}
	if w.stack == stackLive {
		if cfg.corrupt {
			// An acknowledged write the corpus never saw.
			st.live.added = append(st.live.added, c.fragments[1])
		}
		rep.checks = append(rep.checks, checkLive(st.live, c, liveProbes)...)
	} else {
		ref, err := w.oracleTarget(c)
		if err != nil {
			return nil, err
		}
		rep.checks = append(rep.checks, checkReads(recs, ref, runtime.NumCPU(), w.checked)...)
	}
	return rep, nil
}

// liveProbes is how many probe queries live-write's end-of-run check
// asks the live, reloaded and rebuilt engines.
const liveProbes = 200

// selfCheck asserts from exact counters that the workload did what its
// name says, so none silently turns into a different benchmark, and
// that each operation type has its sample floor.
func selfCheck(cfg config, w *workload, c map[string]float64, ranked, pages, compares, writes int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, "self-check: "+fmt.Sprintf(format, args...)) }
	switch w.name {
	case "explore-cold":
		if c["engine.query_hit_frac"] > 0.25 || c["engine.dfs_hit_frac"] > 0.05 {
			fail("explore-cold hit the caches: query %.3f, dfs %.3f", c["engine.query_hit_frac"], c["engine.dfs_hit_frac"])
		}
	case "popular-hot":
		if c["engine.query_hit_frac"] < 0.95 || c["engine.dfs_hit_frac"] < 0.95 {
			fail("popular-hot missed the caches: query %.3f, dfs %.3f", c["engine.query_hit_frac"], c["engine.dfs_hit_frac"])
		}
	case "live-write":
		if c["update.compactions"] < 3 || writes == 0 {
			fail("live-write ran %v compactions over %d writes", c["update.compactions"], writes)
		}
	case "cluster-k2":
		if c["dist.leg_calls_per_op"] <= 0 || c["dist.leg_errs"] > 0 {
			fail("cluster-k2 leg calls/op %.3f, leg errors %v", c["dist.leg_calls_per_op"], c["dist.leg_errs"])
		}
	}
	if ranked < cfg.minSamples || pages < cfg.minSamples || compares < cfg.minSamples {
		fail("fewer than %d samples: ranked %d, page %d, compare %d", cfg.minSamples, ranked, pages, compares)
	}
	return bad
}

func legCalls(st *stack) int64 {
	if st.legCalls == nil {
		return 0
	}
	return st.legCalls.Load()
}
