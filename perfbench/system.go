package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	xsact "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The serving stacks under test. explore-cold and popular-hot drive a
// Document built by xsact.Parse; live-write drives an engine opened
// from a v4 snapshot with auto-compaction, the way xsactd serves (the
// facade has no snapshot-open with auto-compaction); cluster-k2 drives
// xsact.FromCluster over two loopback dist.Server legs.

// workload is one traffic mix. The names are fixed: later changes cite
// them.
type workload struct {
	name        string
	clients     int // closed-loop clients; a second one is the first one's writer
	stack       stackKind
	hot         bool // sessions draw from the popular-hot working set
	writeEvery  int  // one op in writeEvery is a write; 0 = read-only
	approxEvery int  // one ranked page in approxEvery is approximate
	// checkEvery: the oracle replays the responses to one query in
	// checkEvery (0 or 1: all). Re-answering every query of a miss-path
	// workload uncached costs as long as the measurement itself.
	checkEvery int
}

type stackKind int

const (
	stackLocal stackKind = iota
	stackLive
	stackCluster
)

// The read-only workloads run one client: on two cores, a second one
// saturates the CPU, and the queueing it adds made their latencies
// swing with the host's speed (six-seed p50 spreads 0.14-0.16 against
// 0.05-0.08 with one client, measured side by side on cluster-k2).
var workloads = []*workload{
	// A new query nearly every session overflows the query (256), DFS
	// (128) and stats (4096) LRUs: the miss path index → slca → xseek →
	// feature → core → table.
	{name: "explore-cold", clients: 1, stack: stackLocal, checkEvery: 4},
	// Zipf draws over 48 hot queries with two fixed selections each fit
	// every cache: the hit path, eager re-scoring and table rendering.
	// A change to slca, feature or core should not move it.
	{name: "popular-hot", clients: 1, stack: stackLocal, hot: true},
	// Explore sessions with one op in five a write: reads run on the
	// update layer's base + delta + tombstone composite, and the engine
	// compacts every compactEvery writes. Two clients, a reader and the
	// writer that applies its writes, so reads and writes overlap.
	{name: "live-write", clients: 2, stack: stackLive, writeEvery: 5},
	// Explore sessions through the HTTP coordinator: the only workload
	// on the wire, the fan-out merge and the coordinator. No writes,
	// to keep it steady; live-write covers the write path.
	{name: "cluster-k2", clients: 1, stack: stackCluster, approxEvery: 4, checkEvery: 4},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	compactEvery = 64 // xsactd's -compact-every default
	clusterLegs  = 2
	corpusName   = "movies"
)

// hasher is an allocation-free FNV-1a over the parts of a response.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) byte1(b byte) { *h = (*h ^ hasher(b)) * 1099511628211 }

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte1(s[i])
	}
	h.byte1(0xff)
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte1(byte(v >> (8 * i)))
	}
}

// rankedResp is a ranked page as the caller sees it: result
// descriptions, score bits and the total. h holds the page's results
// for a following compare.
type rankedResp struct {
	took   time.Duration
	descs  []string
	scores []float64
	total  int
	h      any
}

// fp fingerprints the page. An approximate page is exact but may
// report an unknown total, so its total is left out.
func (r *rankedResp) fp(approx bool) uint64 {
	h := newHasher()
	for i, d := range r.descs {
		h.str(d)
		h.u64(math.Float64bits(r.scores[i]))
	}
	if !approx {
		h.u64(uint64(r.total))
	}
	return uint64(h)
}

type pageResp struct {
	took  time.Duration
	descs []string
	total int
}

func (r *pageResp) fp() uint64 {
	h := newHasher()
	for _, d := range r.descs {
		h.str(d)
	}
	h.u64(uint64(r.total))
	return uint64(h)
}

type compareResp struct {
	took   time.Duration
	text   string
	dod    int
	labels []string
}

func (r *compareResp) fp() uint64 {
	h := newHasher()
	h.str(r.text)
	h.u64(uint64(r.dod))
	for _, l := range r.labels {
		h.str(l)
	}
	return uint64(h)
}

// target is a serving stack as its clients call it. Each method times
// only the call into the system, not the fingerprinting.
type target interface {
	ranked(q string, approx bool) (rankedResp, error)
	page(q string) (pageResp, error)
	compare(h any, idx []int) (compareResp, error)
}

// facadeTarget calls the public xsact API.
type facadeTarget struct{ doc *xsact.Document }

func (t facadeTarget) ranked(q string, approx bool) (rankedResp, error) {
	start := time.Now()
	rs, scores, total, err := t.doc.SearchRankedPageOpts(q, xsact.RankedPageOptions{Limit: pageSize, Approx: approx})
	out := rankedResp{took: time.Since(start), scores: scores, total: total, h: rs}
	for _, r := range rs {
		out.descs = append(out.descs, r.Describe())
	}
	return out, err
}

func (t facadeTarget) page(q string) (pageResp, error) {
	start := time.Now()
	rs, total, err := t.doc.SearchPage(q, pageSize, 0)
	out := pageResp{took: time.Since(start), total: total}
	for _, r := range rs {
		out.descs = append(out.descs, r.Describe())
	}
	return out, err
}

func (t facadeTarget) compare(h any, idx []int) (compareResp, error) {
	rs := h.([]*xsact.Result)
	sel := make([]*xsact.Result, len(idx))
	for i, j := range idx {
		sel[i] = rs[j]
	}
	start := time.Now()
	cmp, err := xsact.Compare(sel, xsact.CompareOptions{SizeBound: compareBound})
	if err != nil {
		return compareResp{took: time.Since(start)}, err
	}
	text := cmp.Text()
	return compareResp{took: time.Since(start), text: text, dod: cmp.DoD, labels: cmp.Labels}, nil
}

// engineTarget calls the serving engine directly, as xsactd does. The
// compare renders exactly what xsact.Compare renders.
type engineTarget struct{ eng *engine.Engine }

func (t engineTarget) ranked(q string, approx bool) (rankedResp, error) {
	acc := xseek.AccuracyExact
	if approx {
		acc = xseek.AccuracyApprox
	}
	start := time.Now()
	p, err := t.eng.SearchRankedPage(q, xseek.SearchOptions{Limit: pageSize, Accuracy: acc})
	out := rankedResp{took: time.Since(start)}
	if err != nil {
		return out, err
	}
	out.total, out.h = p.Total, p.Results
	for _, r := range p.Results {
		out.descs = append(out.descs, xseek.DescribeResult(r.Result, 4))
		out.scores = append(out.scores, r.Score)
	}
	return out, nil
}

func (t engineTarget) page(q string) (pageResp, error) {
	start := time.Now()
	p, err := t.eng.SearchPage(q, xseek.SearchOptions{Limit: pageSize})
	out := pageResp{took: time.Since(start)}
	if err != nil {
		return out, err
	}
	out.total = p.Total
	for _, r := range p.Results {
		out.descs = append(out.descs, xseek.DescribeResult(r, 4))
	}
	return out, nil
}

func (t engineTarget) compare(h any, idx []int) (compareResp, error) {
	rs := h.([]*xseek.RankedResult)
	sel := make([]*xseek.Result, len(idx))
	for i, j := range idx {
		sel[i] = rs[j].Result
	}
	start := time.Now()
	dfss := t.eng.Generate(core.AlgMultiSwap, sel, core.Options{SizeBound: compareBound, Pad: true})
	if dfss == nil {
		return compareResp{took: time.Since(start)}, fmt.Errorf("compare: no DFSs")
	}
	text := table.Build(dfss).Text()
	out := compareResp{took: time.Since(start), text: text, dod: core.TotalDoD(dfss, core.DefaultThreshold)}
	for _, d := range dfss {
		out.labels = append(out.labels, d.Stats.Label)
	}
	return out, nil
}

// uncachedConfig disables every engine cache: the oracle's engines
// recompute each response from the index.
var uncachedConfig = engine.Config{QueryCacheSize: -1, DFSCacheSize: -1, StatsCacheSize: -1}

// liveTarget adds the write path to an engine target and keeps the
// record of acknowledged writes the end-of-run survival check needs.
// Writes come from one client at a time. A remove resolves its victim
// by position; the engine renumbers entities only in a compaction,
// which starts only after a write, so waiting out a due compaction
// keeps the resolved ID valid until the remove.
type liveTarget struct {
	engineTarget
	// syncCompact compacts inline once compactEvery writes are pending
	// (the traced replays, so compaction can be timed); otherwise the
	// engine auto-compacts in the background.
	syncCompact bool
	// span, when set, receives the interval of each update-layer call.
	span func(name string, start, end time.Time)

	added   []string // XML of acknowledged adds
	removed []string // XML of acknowledged removals
}

// add and remove time only the engine call: parsing the fragment,
// waiting out a compaction and resolving the victim are the caller's.
func (t *liveTarget) add(frag string) (time.Duration, error) {
	n, err := xmltree.ParseString(frag)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = t.eng.AddEntity(n)
	took := time.Since(start)
	t.report("update.add", start)
	if err != nil {
		return took, err
	}
	t.added = append(t.added, frag)
	return took, t.afterWrite()
}

func (t *liveTarget) remove(pick uint64) (time.Duration, error) {
	if err := t.settle(); err != nil {
		return 0, err
	}
	kids := t.eng.Root().ChildElements()
	if len(kids) == 0 {
		return 0, fmt.Errorf("remove: corpus is empty")
	}
	victim := kids[pick%uint64(len(kids))]
	id := victim.ID.Clone()
	xml := xmltree.XMLString(victim)
	start := time.Now()
	err := t.eng.RemoveEntity(id)
	took := time.Since(start)
	t.report("update.remove", start)
	if err != nil {
		return took, err
	}
	t.removed = append(t.removed, xml)
	return took, t.afterWrite()
}

func (t *liveTarget) afterWrite() error {
	if !t.syncCompact || pendingOps(t.eng) < compactEvery {
		return nil
	}
	start := time.Now()
	if err := t.eng.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	t.report("update.compact", start)
	return nil
}

func (t *liveTarget) report(name string, start time.Time) {
	if t.span != nil {
		t.span(name, start, time.Now())
	}
}

// settle waits out a due compaction: one is triggered in the
// background once compactEvery writes are pending, and its epoch swap
// resets the count. A compaction must not start between a remove
// resolving its victim and removing it, so settle never starts one
// itself while a background one may still be about to run. Only if the
// count stays up for settleTimeout — the single-flight background
// trigger was skipped, and the writes that would retry it are waiting on
// the caller — does it compact explicitly.
func (t *liveTarget) settle() error {
	deadline := time.Now().Add(settleTimeout)
	for pendingOps(t.eng) >= compactEvery {
		if time.Now().After(deadline) {
			if err := t.eng.Compact(); err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			continue
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// settleTimeout is far above a compaction's duration (about 0.15 s on
// 5000 movies).
const settleTimeout = 2 * time.Second

func pendingOps(eng *engine.Engine) int {
	if live := eng.Live(); live != nil {
		return live.PendingOps()
	}
	return 0
}

// legHandler wraps a shard server: it counts calls, and in a traced run
// reports each call's interval and bytes to the tracer.
type legHandler struct {
	h     http.Handler
	calls *atomic.Int64
	tr    *tracer
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (l *legHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.calls.Add(1)
	if l.tr == nil {
		l.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	l.h.ServeHTTP(cw, r)
	end := time.Now()
	in := r.ContentLength
	if in < 0 {
		in = 0
	}
	l.tr.legCall(start, end, in+cw.n)
}

// stack is one set-up serving stack.
type stack struct {
	t        target
	eng      *engine.Engine // the serving engine, for its metrics
	live     *liveTarget    // live-write only
	legCalls *atomic.Int64  // cluster-k2 only
	servers  []*http.Server
	serving  sync.WaitGroup // the servers' Serve loops
}

func (s *stack) close() {
	for _, hs := range s.servers {
		hs.Close()
	}
	s.serving.Wait()
	if len(s.servers) > 0 {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
}

// setupEnv holds what set-up reads besides the corpus: the v4
// snapshot live-write opens, written untimed beforehand.
type setupEnv struct {
	snapPath string
	tr       *tracer // traced runs: leg handlers report here
	syncLive bool    // traced runs: compact inline
}

// setup builds the workload's serving stack from the corpus XML bytes.
// This is what setup_s times.
func (w *workload) setup(c *corpus, env *setupEnv) (*stack, error) {
	switch w.stack {
	case stackLive:
		root, err := xmltree.Parse(bytes.NewReader(c.xml))
		if err != nil {
			return nil, err
		}
		cfg := engine.Config{AutoCompactThreshold: compactEvery}
		if env.syncLive {
			cfg.AutoCompactThreshold = 0
		}
		eng, _, err := persist.LoadFile(env.snapPath, root, cfg)
		if err != nil {
			return nil, err
		}
		lt := &liveTarget{engineTarget: engineTarget{eng}, syncCompact: env.syncLive}
		return &stack{t: lt, eng: eng, live: lt}, nil
	case stackCluster:
		return startCluster(c.xml, env.tr)
	default:
		doc, err := xsact.Parse(bytes.NewReader(c.xml))
		if err != nil {
			return nil, err
		}
		return &stack{t: facadeTarget{doc}, eng: doc.Engine()}, nil
	}
}

// startCluster boots the legs on loopback listeners, each bootstrapping
// from its own parse of the XML as a separate process would, and dials
// the coordinator through the facade.
func startCluster(xml []byte, tr *tracer) (*stack, error) {
	st := &stack{legCalls: new(atomic.Int64)}
	var endpoints []string
	for g := 0; g < clusterLegs; g++ {
		sv, err := dist.NewServer(g, clusterLegs)
		if err == nil {
			var root *xmltree.Node
			if root, err = xmltree.Parse(bytes.NewReader(xml)); err == nil {
				err = sv.AddCorpus(corpusName, root)
			}
		}
		var l net.Listener
		if err == nil {
			l, err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("leg %d: %w", g, err)
		}
		hs := &http.Server{Handler: &legHandler{h: sv, calls: st.legCalls, tr: tr}}
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			hs.Serve(l) // returns http.ErrServerClosed once close runs
		}()
		st.servers = append(st.servers, hs)
		endpoints = append(endpoints, "http://"+l.Addr().String())
	}
	root, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		st.close()
		return nil, err
	}
	doc, err := xsact.FromCluster(root, endpoints, corpusName, xsact.ClusterOptions{})
	if err != nil {
		st.close()
		return nil, err
	}
	st.t, st.eng = facadeTarget{doc}, doc.Engine()
	return st, nil
}

// oracleTarget is the reference the workload's responses must match
// bit for bit: a cache-disabled in-process engine, sharded like the
// cluster for cluster-k2.
func (w *workload) oracleTarget(c *corpus) (engineTarget, error) {
	root, err := xmltree.Parse(bytes.NewReader(c.xml))
	if err != nil {
		return engineTarget{}, err
	}
	if w.stack == stackCluster {
		return engineTarget{engine.FromSharded(shard.Build(root, clusterLegs), uncachedConfig)}, nil
	}
	return engineTarget{engine.NewWithConfig(root, uncachedConfig)}, nil
}

// writeSnapshot writes the compact v4 snapshot live-write opens.
func writeSnapshot(c *corpus, path string) error {
	root, err := xmltree.Parse(bytes.NewReader(c.xml))
	if err != nil {
		return err
	}
	return persist.SaveFileFormat(path, engine.New(root), persist.Meta{CorpusName: corpusName}, persist.CompactFormatVersion)
}
