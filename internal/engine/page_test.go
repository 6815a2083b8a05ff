package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

func pagedCorpus(t *testing.T, n int) *Engine {
	t.Helper()
	var b strings.Builder
	b.WriteString("<store>")
	for i := 0; i < n; i++ {
		extra := strings.Repeat(" gps", i%3)
		fmt.Fprintf(&b, "<product><name>P%02d gps</name><blurb>unit%s</blurb></product>", i, extra)
	}
	b.WriteString("</store>")
	return New(xmltree.MustParseString(b.String()))
}

func TestEngineSearchPageConcatenation(t *testing.T) {
	e := pagedCorpus(t, 17)
	full, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	var got []*xseek.Result
	for off := 0; ; off += 5 {
		page, err := e.SearchPage("gps", xseek.SearchOptions{Limit: 5, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != len(full) {
			t.Fatalf("total = %d, want %d", page.Total, len(full))
		}
		if page.Offset != off && off < len(full) {
			t.Fatalf("offset = %d, want %d", page.Offset, off)
		}
		if len(page.Results) == 0 {
			break
		}
		got = append(got, page.Results...)
	}
	if len(got) != len(full) {
		t.Fatalf("concatenated %d results, want %d", len(got), len(full))
	}
	for i := range full {
		// Pages are windows over the one cached result list, so
		// pointer equality must hold at the serving layer.
		if got[i] != full[i] {
			t.Fatalf("page concat diverges at %d", i)
		}
	}
}

func TestEngineSearchPageOutOfRange(t *testing.T) {
	e := pagedCorpus(t, 4)
	page, err := e.SearchPage("gps", xseek.SearchOptions{Limit: 3, Offset: 50})
	if err != nil {
		t.Fatalf("out-of-range offset errored: %v", err)
	}
	if len(page.Results) != 0 || page.Total != 4 || page.Offset != 4 {
		t.Fatalf("page = %+v, want empty results, total 4, offset clamped to 4", page)
	}
}

func TestEngineSearchRankedPageConcatenation(t *testing.T) {
	e := pagedCorpus(t, 21)
	full, err := e.SearchRanked("gps")
	if err != nil {
		t.Fatal(err)
	}
	var got []*xseek.RankedResult
	for off := 0; ; off += 4 {
		page, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 4, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != len(full) {
			t.Fatalf("total = %d, want %d", page.Total, len(full))
		}
		if len(page.Results) == 0 {
			break
		}
		got = append(got, page.Results...)
	}
	if len(got) != len(full) {
		t.Fatalf("concatenated %d results, want %d", len(got), len(full))
	}
	for i := range full {
		if got[i].Result != full[i].Result || got[i].Score != full[i].Score {
			t.Fatalf("ranked page concat diverges at %d: %q vs %q", i, got[i].Label, full[i].Label)
		}
	}
}

// RouteCorpusXML is the ranked-route corpus: n products matching
// "gps" with term frequencies cycling 1..3 (score ties included) and
// "unit" everywhere, so a small window is prunable.
func RouteCorpusXML(n int) string {
	var b strings.Builder
	b.WriteString("<store>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<product><name>P%02d gps</name><blurb>unit%s</blurb><note>n%d</note></product>",
			i, strings.Repeat(" gps", i%3), i%5)
	}
	b.WriteString("</store>")
	return b.String()
}

// RouteOptions are the windows the ranked-route check serves.
var RouteOptions = []xseek.SearchOptions{{Limit: 5}, {Limit: 3, Offset: 4}, {Limit: 2, Offset: 39}}

// RankedRoutesAgree serves one ranked page of query on a fresh engine
// through both remaining routes — pulled from the executor's lazy
// pipeline on a query-cache miss, then cut from the cached result list
// once Search has filled the cache — and asserts both pages are
// Float64bits-identical to the same window of the reference ranking
// (SearchRanked: every cached result scored, stable sort), with equal
// totals. Exported so the coordinator case, an external test (package
// dist imports this one), runs the same check.
func RankedRoutesAgree(t *testing.T, e *Engine, query string, opts xseek.SearchOptions) {
	t.Helper()
	m0 := e.Metrics()
	miss, err := e.SearchRankedPage(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	m1 := e.Metrics()
	if m1.RankedStreamed != m0.RankedStreamed+1 || m1.RankedEager != m0.RankedEager {
		t.Fatalf("%+v: cold page took the cached-list route (streamed %d→%d)", opts, m0.RankedStreamed, m1.RankedStreamed)
	}
	full, err := e.SearchRanked(query)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := e.SearchRankedPage(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 := e.Metrics(); m2.RankedEager != m1.RankedEager+1 {
		t.Fatalf("%+v: warm page did not take the cached-list route (eager %d→%d)", opts, m1.RankedEager, m2.RankedEager)
	}
	lo, hi := opts.Window(len(full))
	want := rankedBits(full[lo:hi])
	for route, p := range map[string]*RankedPage{"streamed": miss, "cached": hit} {
		if got := rankedBits(p.Results); got != want {
			t.Fatalf("%+v: %s route page\n got  %s\n want %s", opts, route, got, want)
		}
		if p.Total != len(full) || p.Offset != lo {
			t.Fatalf("%+v: %s route total %d offset %d, want %d and %d", opts, route, p.Total, p.Offset, len(full), lo)
		}
	}
}

// rankedBits fingerprints a ranked page down to the score bits.
func rankedBits(rs []*xseek.RankedResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s|%s|%016x;", r.Node.ID, r.Label, math.Float64bits(r.Score))
	}
	return b.String()
}

// TestRankedRoutesAgree runs the route check on every in-process
// executor: monolithic, sharded at K ∈ {2, 8}, and live (pending adds
// and removes over a monolithic and a sharded base).
func TestRankedRoutesAgree(t *testing.T) {
	live := func(shards int) func() *Engine {
		return func() *Engine {
			e := NewWithConfig(xmltree.MustParseString(RouteCorpusXML(40)), Config{Shards: shards})
			if _, err := e.AddEntity(xmltree.MustParseString("<product><name>PX gps gps</name><blurb>unit gps</blurb></product>")); err != nil {
				t.Fatal(err)
			}
			if err := e.RemoveEntity(e.Root().ChildElements()[3].ID); err != nil {
				t.Fatal(err)
			}
			return e
		}
	}
	for name, mk := range map[string]func() *Engine{
		"monolithic": func() *Engine { return New(xmltree.MustParseString(RouteCorpusXML(40))) },
		"K=2":        func() *Engine { return NewWithConfig(xmltree.MustParseString(RouteCorpusXML(40)), Config{Shards: 2}) },
		"K=8":        func() *Engine { return NewWithConfig(xmltree.MustParseString(RouteCorpusXML(40)), Config{Shards: 8}) },
		"live":       live(1),
		"live K=2":   live(2),
	} {
		t.Run(name, func(t *testing.T) {
			for _, opts := range RouteOptions {
				RankedRoutesAgree(t, mk(), "gps unit", opts)
			}
		})
	}
}

func TestMetricsPlannerCounters(t *testing.T) {
	e := pagedCorpus(t, 9)
	if _, err := e.Search("gps unit"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search("gps unit"); err != nil { // cache hit: no new decision
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlannerIndexedLookup+m.PlannerScanEager != 1 {
		t.Fatalf("planner decisions = %d indexed + %d scan, want exactly 1 total (second search was cached)",
			m.PlannerIndexedLookup, m.PlannerScanEager)
	}
}

func TestStatsCacheBounded(t *testing.T) {
	root := xmltree.MustParseString(`<store>
		<product><name>A</name><price>1</price></product>
		<product><name>B</name><price>2</price></product>
		<product><name>C</name><price>3</price></product>
		<product><name>D</name><price>4</price></product>
	</store>`)
	e := NewWithConfig(root, Config{StatsCacheSize: 2})
	products := root.ChildElements()
	if len(products) != 4 {
		t.Fatalf("test corpus has %d products, want 4", len(products))
	}
	for _, p := range products {
		e.Stats(p, xseek.LabelFor(p))
	}
	m := e.Metrics()
	if m.StatsMisses != 4 {
		t.Fatalf("stats misses = %d, want 4", m.StatsMisses)
	}
	if m.StatsEvictions != 2 {
		t.Fatalf("stats evictions = %d, want 2 (4 inserts into a 2-slot cache)", m.StatsEvictions)
	}
	if got := e.stats.len(); got != 2 {
		t.Fatalf("stats cache holds %d entries, want 2", got)
	}
	// The two oldest were evicted: re-requesting the first is a miss,
	// re-requesting the last is a hit.
	e.Stats(products[0], xseek.LabelFor(products[0]))
	e.Stats(products[3], xseek.LabelFor(products[3]))
	m = e.Metrics()
	if m.StatsMisses != 5 || m.StatsHits != 1 {
		t.Fatalf("after re-requests: misses = %d, hits = %d; want 5 and 1", m.StatsMisses, m.StatsHits)
	}
}
