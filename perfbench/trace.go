package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The traced run. It replays a prefix of the workload's operations on
// one client twice, each time on a fresh stack: untraced, then traced.
// The traced replay wraps each call in a span and, for the in-process
// stacks, re-runs the call module by module through each layer's public
// entry points, one span per call. Spans stay in memory, grouped by
// request, and are written out when the run ends. Spans inside the
// program are a later change; these time the calls into each module.

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index in the request's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// request is one traced operation: its spans and the counts recorded
// at the same boundaries.
type request struct {
	ID     int                `json:"req"`
	Op     string             `json:"op"`
	Spans  []span             `json:"spans"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0   time.Time
	mu   sync.Mutex // legs report spans from their own goroutines
	reqs []*request
	cur  *request
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// begin starts a new request; spans and counts go to it until the next.
func (tr *tracer) begin(op string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.cur = &request{ID: len(tr.reqs) + 1, Op: op, Counts: make(map[string]float64)}
	tr.reqs = append(tr.reqs, tr.cur)
}

// open starts a span in the current request and returns its index.
func (tr *tracer) open(name string, parent int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.cur
	r.Spans = append(r.Spans, span{Name: name, Parent: parent, Start: tr.ns(time.Now())})
	return len(r.Spans) - 1
}

func (tr *tracer) close(i int) {
	end := tr.ns(time.Now())
	tr.mu.Lock()
	tr.cur.Spans[i].End = end
	tr.mu.Unlock()
}

// record adds a finished span under the current request's first span.
func (tr *tracer) record(name string, start, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.cur
	parent := -1
	if len(r.Spans) > 0 {
		parent = 0
	}
	r.Spans = append(r.Spans, span{Name: name, Parent: parent, Start: tr.ns(start), End: tr.ns(end)})
}

func (tr *tracer) count(key string, v float64) {
	tr.mu.Lock()
	tr.cur.Counts[key] += v
	tr.mu.Unlock()
}

// legCall records one shard-server call under the current operation.
func (tr *tracer) legCall(start, end time.Time, bytes int64) {
	tr.record("dist.leg", start, end)
	tr.count("dist.leg_bytes", float64(bytes))
}

// isOp reports whether a request is a replayed operation, as opposed
// to set-up, warm-up or a snapshot round trip.
func (r *request) isOp() bool {
	switch r.Op {
	case "ranked", "page", "compare", "add", "remove":
		return true
	}
	return false
}

// selfTimes sums each span name's self time — its duration minus the
// union of its children's intervals — and counts its spans, over the
// requests keep selects.
func (tr *tracer) selfTimes(keep func(*request) bool) (sum map[string]time.Duration, n map[string]int) {
	sum, n = make(map[string]time.Duration), make(map[string]int)
	for _, r := range tr.reqs {
		if !keep(r) {
			continue
		}
		kids := make(map[int][][2]int64)
		for _, s := range r.Spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		for i, s := range r.Spans {
			sum[s.Name] += time.Duration(s.End - s.Start - covered(kids[i], s.Start, s.End))
			n[s.Name]++
		}
	}
	return sum, n
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

func (tr *tracer) counts(keep func(*request) bool) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range tr.reqs {
		if !keep(r) {
			continue
		}
		for k, v := range r.Counts {
			out[k] += v
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range tr.reqs {
		if err := enc.Encode(r); err != nil {
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

// counters are the engine counters the benchmark reads, taken from a
// Metrics snapshot so two snapshots subtract index by index.
type counters [nCounters]int64

const (
	cQueryHits = iota
	cQueryMisses
	cStatsHits
	cStatsMisses
	cDFSHits
	cDFSMisses
	cStreamed
	cEager
	cEvictions
	cCompactions
	cRetries
	cLegErrs
	nCounters
)

func countersOf(m engine.Metrics) counters {
	return counters{
		m.QueryHits, m.QueryMisses, m.StatsHits, m.StatsMisses, m.DFSHits, m.DFSMisses,
		m.RankedStreamed, m.RankedEager, m.QueryEvictions + m.StatsEvictions + m.DFSEvictions,
		m.Compactions, m.DistRetries, m.DistLegErrs,
	}
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// metrics turns counter deltas over ops operations into the engine and
// dist counter metrics both kinds of run report.
func (c counters) metrics(ops int, legCalls int64) map[string]float64 {
	f := func(i int) float64 { return float64(c[i]) }
	return map[string]float64{
		"engine.query_hit_frac":       ratio(f(cQueryHits), f(cQueryHits)+f(cQueryMisses)),
		"engine.stats_hit_frac":       ratio(f(cStatsHits), f(cStatsHits)+f(cStatsMisses)),
		"engine.dfs_hit_frac":         ratio(f(cDFSHits), f(cDFSHits)+f(cDFSMisses)),
		"engine.ranked_streamed_frac": ratio(f(cStreamed), f(cStreamed)+f(cEager)),
		"engine.evictions_per_op":     ratio(f(cEvictions), float64(ops)),
		"update.compactions":          f(cCompactions),
		"dist.leg_calls_per_op":       ratio(float64(legCalls), float64(ops)),
		"dist.retries":                f(cRetries),
		"dist.leg_errs":               f(cLegErrs),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists the per-module metrics of a traced run with their
// units, in output order.
var perLayer = []struct{ name, unit string }{
	{"xmltree.parse_ms", "ms"},
	{"index.build_ms", "ms"},
	{"index.postings_per_result", "count"},
	{"slca.us", "us"},
	{"slca.matches_per_query", "count"},
	{"xseek.build_ms", "ms"},
	{"xseek.compile_us", "us"},
	{"xseek.execute_us", "us"},
	{"xseek.rank_hit_us", "us"},
	{"xseek.rank_wand_us", "us"},
	{"xseek.wand_pruned_frac", "frac"},
	{"xseek.blocks_skipped_per_query", "count"},
	{"engine.query_hit_frac", "frac"},
	{"engine.stats_hit_frac", "frac"},
	{"engine.dfs_hit_frac", "frac"},
	{"engine.ranked_streamed_frac", "frac"},
	{"engine.evictions_per_op", "count"},
	{"feature.extract_us", "us"},
	{"feature.extracts_per_compare", "count"},
	{"core.generate_us", "us"},
	{"core.dod_mean", "count"},
	{"table.render_us", "us"},
	{"update.add_us", "us"},
	{"update.remove_us", "us"},
	{"update.compact_ms", "ms"},
	{"update.compactions", "count"},
	{"update.pending_mean", "count"},
	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.bytes_per_xml_byte", "ratio"},
	{"persist.journal_roundtrip_ms", "ms"},
	{"shard.local_us", "us"},
	{"dist.leg_serve_us", "us"},
	{"dist.leg_calls_per_op", "count"},
	{"dist.leg_bytes_per_op", "bytes"},
	{"dist.outside_leg_us", "us"},
	{"dist.retries", "count"},
	{"dist.leg_errs", "count"},
	{"trace.untraced_op_us", "us"},
	{"trace.traced_op_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// replayer drives one op sequence through a client, optionally
// traced.
type replayer struct {
	cl    *client
	tr    *tracer // nil: untraced
	local target  // cluster-k2: the in-process sharded engine (shard.local)
	check func(string)

	lastX   []*xseek.RankedResult // the decomposed ranked page
	sum     counters              // engine counters over the replayed ops
	opTime  time.Duration         // summed per-op time, as the caller pays it
	ops     int
	pending float64 // live-write: summed pending writes, sampled per op
}

// maxReplayOps caps a traced replay, which keeps every span in memory;
// the per-module means settle long before it.
const maxReplayOps = 20000

// traceRun is the --trace 1 run.
func traceRun(cfg config, w *workload) (*report, error) {
	c, hot, env, cleanup, err := prepare(cfg, w)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tr := newTracer()
	rep := &report{info: map[string]any{"workload": w.name, "mode": "trace"}}
	check := func(msg string) {
		if len(rep.checks) < 10 {
			rep.checks = append(rep.checks, msg)
		}
	}
	if err := traceSetups(cfg, w, c, env, tr); err != nil {
		return nil, err
	}

	// The replayed ops: client 0's stream, after a fixed warm-up taken
	// from client 1's, so both replays start from the same cache state.
	warmOps := hotWarmOps(hot)
	warmOps = append(warmOps, newStream(w, c, hot, 1).take(400)...)
	src := newStream(w, c, hot, 0)
	env.syncLive = true

	base, err := w.setup(c, env)
	if err != nil {
		return nil, err
	}
	untraced := &replayer{cl: &client{st: base}, check: check}
	untraced.warm(warmOps)
	budget := time.Duration(cfg.seconds * float64(time.Second) / 3)
	var ops []op
	for start := time.Now(); time.Since(start) < budget && len(ops) < maxReplayOps; {
		o := src.next()
		ops = append(ops, o)
		untraced.do(o)
	}
	base.close()

	env.tr = tr
	st, err := w.setup(c, env)
	if err != nil {
		return nil, err
	}
	defer st.close()
	traced := &replayer{cl: &client{st: st}, tr: tr, check: check}
	if st.live != nil {
		st.live.span = func(name string, start, end time.Time) { tr.record(name, start, end) }
	}
	if w.stack == stackCluster {
		ref, err := w.oracleTarget(c)
		if err != nil {
			return nil, err
		}
		traced.local = ref
	}
	tr.begin("warm-up")
	traced.warm(warmOps)
	for _, o := range ops {
		traced.do(o)
	}
	for _, rp := range []*replayer{untraced, traced} {
		for _, e := range rp.cl.errs {
			check("op failed: " + e)
		}
	}
	if a, b := untraced.cl.recs, traced.cl.recs; len(a) != len(b) {
		check(fmt.Sprintf("replays recorded %d vs %d responses", len(a), len(b)))
	} else {
		for i := range a {
			if a[i].fp != b[i].fp {
				check(fmt.Sprintf("%v answered differently in the traced replay", b[i].o))
				break
			}
		}
	}

	layer := traced.layerMetrics(untraced)
	if st.live != nil {
		ms, err := journalRoundtrip(st.live.eng, tr)
		if err != nil {
			return nil, err
		}
		layer["persist.journal_roundtrip_ms"] = ms
		rep.checks = append(rep.checks, checkLive(st.live, c, liveProbes)...)
	}
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	rep.res = result{Attempted: traced.ops, Failed: traced.cl.failed, Metrics: make(map[string]metric)}
	for _, m := range perLayer {
		rep.res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	rep.info["samples"] = map[string]int{"ops": traced.ops, "requests": len(tr.reqs)}
	return rep, nil
}

// traceSetups times set-up module by module, cfg.setups times.
func traceSetups(cfg config, w *workload, c *corpus, env *setupEnv, tr *tracer) error {
	if w.stack == stackLive {
		tr.begin("snapshot")
		root, err := xmltree.Parse(bytes.NewReader(c.xml))
		if err != nil {
			return err
		}
		eng := engine.New(root)
		i := tr.open("persist.save", -1)
		err = persist.SaveFileFormat(env.snapPath, eng, persist.Meta{CorpusName: corpusName}, persist.CompactFormatVersion)
		tr.close(i)
		if err != nil {
			return err
		}
		fi, err := os.Stat(env.snapPath)
		if err != nil {
			return err
		}
		tr.count("persist.bytes", float64(fi.Size()))
		tr.count("xml.bytes", float64(len(c.xml)))
	}
	for n := 0; n < cfg.setups; n++ {
		tr.begin("setup")
		i := tr.open("xmltree.parse", -1)
		root, err := xmltree.Parse(bytes.NewReader(c.xml))
		tr.close(i)
		if err != nil {
			return err
		}
		if w.stack == stackLive {
			i = tr.open("persist.load", -1)
			_, _, err = persist.LoadFile(env.snapPath, root, engine.Config{})
			tr.close(i)
			if err != nil {
				return err
			}
			continue
		}
		i = tr.open("index.build", -1)
		idx := index.BuildParallel(root, 0)
		tr.close(i)
		i = tr.open("xseek.build", -1)
		xseek.FromParts(root, idx, xseek.InferSchemaParallel(root, 0))
		tr.close(i)
	}
	return nil
}

func (rp *replayer) warm(ops []op) {
	for _, o := range ops {
		rp.cl.do(o)
	}
}

// do runs one replayed op through the client, which records its
// fingerprint, and adds the op's cost as the caller pays it. Traced,
// the op gets a request with a root span around the call, its engine
// counter deltas, and the module-by-module replay.
func (rp *replayer) do(o op) {
	cl := rp.cl
	if o.kind == opCompare && o.selection(len(cl.last.descs)) == nil {
		return // too short a page to compare: not attempted
	}
	rp.ops++
	if cl.st.live != nil {
		rp.pending += float64(pendingOps(cl.st.eng))
	}
	recs, failed := len(cl.recs), cl.failed
	if rp.tr == nil {
		start := time.Now()
		cl.do(o)
		rp.opTime += time.Since(start)
		return
	}
	start := time.Now()
	rp.tr.begin(o.kind.String())
	m0 := countersOf(cl.st.eng.Metrics())
	root := rp.tr.open("op."+o.kind.String(), -1)
	cl.do(o)
	rp.tr.close(root)
	d := countersOf(cl.st.eng.Metrics()).minus(m0)
	rp.opTime += time.Since(start)
	rp.sum.add(d)
	if cl.failed == failed && len(cl.recs) > recs {
		rp.decompose(o, d, cl.recs[len(cl.recs)-1].fp)
	}
}

// decompose re-runs a traced op module by module, under its own root
// span, and checks the modules compose to the response the stack gave.
func (rp *replayer) decompose(o op, d counters, fp uint64) {
	tr := rp.tr
	if rp.local != nil {
		// cluster-k2: the same call on the in-process sharded engine is
		// the floor the cluster can reach, and the reference it must match.
		var got uint64
		switch o.kind {
		case opRanked:
			i := tr.open("shard.local", -1)
			r, err := rp.local.ranked(o.query, o.approx)
			tr.close(i)
			if err != nil {
				rp.check(fmt.Sprintf("shard.local %v: %v", o, err))
				return
			}
			got = r.fp(o.approx)
		case opPage:
			i := tr.open("shard.local", -1)
			r, err := rp.local.page(o.query)
			tr.close(i)
			if err != nil {
				rp.check(fmt.Sprintf("shard.local %v: %v", o, err))
				return
			}
			got = r.fp()
		default:
			return
		}
		if got != fp {
			rp.check(fmt.Sprintf("%v: cluster and in-process sharded answers differ", o))
		}
		return
	}
	eng := rp.cl.st.eng
	x := eng.Xseek()
	if x == nil || rp.cl.st.live != nil {
		return // the live composite has no single xseek engine to decompose
	}
	opts := xseek.SearchOptions{Limit: pageSize}
	if o.approx {
		opts.Accuracy = xseek.AccuracyApprox
	}
	switch o.kind {
	case opRanked:
		root := tr.open("replay.ranked", -1)
		page, total, ok := rp.rankModules(o, d, opts, root)
		tr.close(root)
		rp.lastX = page
		if !ok {
			return
		}
		r := rankedResp{total: total}
		for _, res := range page {
			r.descs = append(r.descs, xseek.DescribeResult(res.Result, 4))
			r.scores = append(r.scores, res.Score)
		}
		if r.fp(o.approx) != fp {
			rp.check(fmt.Sprintf("%v: module replay differs from the served page", o))
		}
	case opPage:
		if d[cQueryMisses] == 0 {
			return // served from the query cache: no module work
		}
		root := tr.open("replay.page", -1)
		results := rp.execute(o.query, root)
		tr.close(root)
		if results == nil {
			return
		}
		r := pageResp{total: len(results)}
		for _, res := range results[:min(pageSize, len(results))] {
			r.descs = append(r.descs, xseek.DescribeResult(res, 4))
		}
		if r.fp() != fp {
			rp.check(fmt.Sprintf("%v: module replay differs from the served page", o))
		}
	case opCompare:
		idx := o.selection(len(rp.lastX))
		if idx == nil {
			return
		}
		sel := make([]*xseek.Result, len(idx))
		for i, j := range idx {
			sel[i] = rp.lastX[j].Result
		}
		copts := core.Options{SizeBound: compareBound, Pad: true}.Normalized()
		root := tr.open("replay.compare", -1)
		var dfss []*core.DFS
		if d[cDFSMisses] > 0 {
			stats := make([]*feature.Stats, len(sel))
			for i, r := range sel {
				s := tr.open("feature.extract", root)
				stats[i] = feature.Extract(r.Node, x.Schema(), r.Label)
				tr.close(s)
			}
			tr.count("feature.extracts", float64(d[cStatsMisses]))
			tr.count("feature.compares", 1)
			g := tr.open("core.generate", root)
			dfss = core.GenerateParallel(core.AlgMultiSwap, stats, copts)
			tr.close(g)
		} else {
			dfss = eng.Generate(core.AlgMultiSwap, sel, copts)
			tr.count("feature.compares", 1)
		}
		t := tr.open("table.render", root)
		text := table.Build(dfss).Text()
		tr.close(t)
		tr.close(root)
		r := compareResp{text: text, dod: core.TotalDoD(dfss, core.DefaultThreshold)}
		for _, d := range dfss {
			r.labels = append(r.labels, d.Stats.Label)
		}
		if r.fp() != fp {
			rp.check(fmt.Sprintf("%v: module replay renders a different comparison", o))
		}
	}
}

// rankModules replays a ranked page the way the engine served it — the
// WAND stream on a streamed route, a re-score of the cached list on a
// query-cache hit, the eager pipeline otherwise — one span per module.
func (rp *replayer) rankModules(o op, d counters, opts xseek.SearchOptions, root int) ([]*xseek.RankedResult, int, bool) {
	tr, eng := rp.tr, rp.cl.st.eng
	var results []*xseek.Result
	switch {
	case d[cStreamed] > 0:
		q := rp.compile(o.query, root)
		if q == nil {
			return nil, 0, false
		}
		i := tr.open("xseek.rank_wand", root)
		page, total, ws, err := q.RankWAND(opts, nil)
		tr.close(i)
		if err != nil {
			rp.check(fmt.Sprintf("replay %v: %v", o, err))
			return nil, 0, false
		}
		tr.count("xseek.wand_pruned", float64(ws.Pruned))
		tr.count("xseek.blocks_skipped", float64(ws.BlocksSkipped))
		if total >= 0 {
			tr.count("xseek.wand_results", float64(total))
		}
		return page, total, true
	case d[cQueryHits] > 0:
		var err error
		if results, err = eng.Search(o.query); err != nil {
			rp.check(fmt.Sprintf("replay %v: %v", o, err))
			return nil, 0, false
		}
		i := tr.open("xseek.rank_hit", root)
		page := eng.Xseek().RankPage(results, o.query, opts)
		tr.close(i)
		return page, len(results), true
	default:
		if results = rp.execute(o.query, root); results == nil {
			return nil, 0, false
		}
		i := tr.open("xseek.rank_page", root)
		page := eng.Xseek().RankPage(results, o.query, opts)
		tr.close(i)
		return page, len(results), true
	}
}

// compile runs xseek.Compile under a span and counts the postings it
// resolved.
func (rp *replayer) compile(q string, parent int) *xseek.Query {
	i := rp.tr.open("xseek.compile", parent)
	cq, err := rp.cl.st.eng.Xseek().Compile(q)
	rp.tr.close(i)
	if err != nil {
		rp.check(fmt.Sprintf("replay compile %q: %v", q, err))
		return nil
	}
	return cq
}

// execute runs compile → SLCA → entity mapping and labelling, one span
// each, and returns the doc-order results.
func (rp *replayer) execute(q string, parent int) []*xseek.Result {
	tr := rp.tr
	cq := rp.compile(q, parent)
	if cq == nil {
		return nil
	}
	postings := 0
	for _, n := range cq.Stats.Lengths {
		postings += n
	}
	i := tr.open("slca.compute", parent)
	matches := cq.SLCAs()
	tr.close(i)
	i = tr.open("xseek.execute", parent)
	results, err := rp.cl.st.eng.Xseek().MapToEntities(matches)
	tr.close(i)
	if err != nil {
		rp.check(fmt.Sprintf("replay execute %q: %v", q, err))
		return nil
	}
	tr.count("index.postings", float64(postings))
	tr.count("index.results", float64(len(results)))
	tr.count("slca.matches", float64(len(matches)))
	return results
}

// layerMetrics folds the traced replay's spans and counts into the
// per-module metrics; untraced is the same op sequence run untraced.
func (rp *replayer) layerMetrics(untraced *replayer) map[string]float64 {
	all := func(*request) bool { return true }
	// Set-up and snapshot spans come from their own requests; every
	// other module number is over the replayed operations only.
	setupSelf, setupN := rp.tr.selfTimes(all)
	setupCnt := rp.tr.counts(all)
	self, n := rp.tr.selfTimes((*request).isOp)
	cnt := rp.tr.counts((*request).isOp)
	mean := func(self map[string]time.Duration, n map[string]int, name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return float64(self[name].Nanoseconds()) / float64(n[name]) / 1e3
	}
	meanUS := func(name string) float64 { return mean(self, n, name) }
	setupMS := func(name string) float64 { return mean(setupSelf, setupN, name) / 1e3 }
	ops := float64(rp.ops)
	m := rp.sum.metrics(rp.ops, int64(n["dist.leg"]))
	for k, v := range map[string]float64{
		"xmltree.parse_ms":               setupMS("xmltree.parse"),
		"index.build_ms":                 setupMS("index.build"),
		"index.postings_per_result":      ratio(cnt["index.postings"], cnt["index.results"]),
		"slca.us":                        meanUS("slca.compute"),
		"slca.matches_per_query":         ratio(cnt["slca.matches"], float64(n["slca.compute"])),
		"xseek.build_ms":                 setupMS("xseek.build"),
		"xseek.compile_us":               meanUS("xseek.compile"),
		"xseek.execute_us":               meanUS("xseek.execute"),
		"xseek.rank_hit_us":              meanUS("xseek.rank_hit"),
		"xseek.rank_wand_us":             meanUS("xseek.rank_wand"),
		"xseek.wand_pruned_frac":         ratio(cnt["xseek.wand_pruned"], cnt["xseek.wand_results"]),
		"xseek.blocks_skipped_per_query": ratio(cnt["xseek.blocks_skipped"], float64(n["xseek.rank_wand"])),
		"feature.extract_us":             meanUS("feature.extract"),
		"feature.extracts_per_compare":   ratio(cnt["feature.extracts"], cnt["feature.compares"]),
		"core.generate_us":               meanUS("core.generate"),
		"core.dod_mean":                  ratio(rp.cl.dods, float64(rp.cl.compares)),
		"table.render_us":                meanUS("table.render"),
		"update.add_us":                  meanUS("update.add"),
		"update.remove_us":               meanUS("update.remove"),
		"update.compact_ms":              meanUS("update.compact") / 1e3,
		"update.pending_mean":            ratio(rp.pending, ops),
		"persist.save_ms":                setupMS("persist.save"),
		"persist.load_ms":                setupMS("persist.load"),
		"persist.bytes_per_xml_byte":     ratio(setupCnt["persist.bytes"], setupCnt["xml.bytes"]),
		"shard.local_us":                 meanUS("shard.local"),
		"dist.leg_serve_us":              meanUS("dist.leg"),
		"dist.leg_bytes_per_op":          ratio(cnt["dist.leg_bytes"], ops),
		"dist.outside_leg_us":            rp.outsideLegUS(),
		"trace.untraced_op_us":           ratio(float64(untraced.opTime.Nanoseconds())/1e3, float64(untraced.ops)),
		"trace.traced_op_us":             ratio(float64(rp.opTime.Nanoseconds())/1e3, ops),
	} {
		m[k] = v
	}
	m["trace.overhead_frac"] = ratio(m["trace.traced_op_us"], m["trace.untraced_op_us"]) - 1
	return m
}

// outsideLegUS is the mean, over operations that called a leg, of the
// operation's self time: the coordinator call minus the time some leg
// was serving it — encode, decode, transport and merge.
func (rp *replayer) outsideLegUS() float64 {
	var sum time.Duration
	var n int
	for _, r := range rp.tr.reqs {
		if !r.isOp() || len(r.Spans) == 0 {
			continue
		}
		var legs [][2]int64
		for _, s := range r.Spans {
			if s.Name == "dist.leg" && s.Parent == 0 {
				legs = append(legs, [2]int64{s.Start, s.End})
			}
		}
		if len(legs) == 0 {
			continue
		}
		root := r.Spans[0]
		sum += time.Duration(root.End - root.Start - covered(legs, root.Start, root.End))
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / float64(n) / 1e3
}

// journalRoundtrip saves the live engine with its pending journal and
// loads it back, timed.
func journalRoundtrip(eng *engine.Engine, tr *tracer) (float64, error) {
	tr.begin("journal")
	root, err := xmltree.ParseString(xmltree.XMLString(eng.Root()))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var buf bytes.Buffer
	i := tr.open("persist.journal_save", -1)
	err = persist.Save(&buf, eng, persist.Meta{CorpusName: corpusName})
	tr.close(i)
	if err != nil {
		return 0, fmt.Errorf("journal save: %w", err)
	}
	i = tr.open("persist.journal_load", -1)
	_, _, err = persist.Load(&buf, root, engine.Config{})
	tr.close(i)
	if err != nil {
		return 0, fmt.Errorf("journal load: %w", err)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}
