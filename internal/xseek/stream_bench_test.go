package xseek

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// streamBenchCorpus builds n sibling entities, each carrying several
// leaf attributes and deliberately NO name-like field: a drained
// Search materializes a labelled Result for every match (paying the
// label fallback's child scans and Sprintf per result), while a ranked
// page labels only the hits that survive the bounded heap. The common
// term appears in every entity, the rare term in every skew-th — the
// same shape BENCH_PLANNER.json calibrates the SLCA planner on.
func streamBenchCorpus(n, skew int) *Engine {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		b.WriteString("<item>")
		fmt.Fprintf(&b, "<desc>common widget %d</desc>", i)
		if i%skew == 0 {
			b.WriteString("<tag>rare</tag>")
		}
		for a := 0; a < 24; a++ {
			fmt.Fprintf(&b, "<attr%d>v%d</attr%d>", a, (i+a)%97, a)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return NewParallel(xmltree.MustParseString(b.String()))
}

// BenchmarkStreamTopK times the ranked page — lazy iterators
// end-to-end through the bounded consumer, labels only for survivors —
// across window size × posting-list skew. BENCH_STREAM.json records a
// run taken beside the eager pipeline this path replaced. limit=0
// ranks everything — the shape with no early termination to exploit.
func BenchmarkStreamTopK(b *testing.B) {
	const nEntities = 20000
	for _, skew := range []int{1, 48, 256} {
		b.Run(fmt.Sprintf("skew=%d", skew), func(b *testing.B) {
			e := streamBenchCorpus(nEntities, skew)
			for _, limit := range []int{10, 100, 0} {
				ls := fmt.Sprint(limit)
				if limit == 0 {
					ls = "all"
				}
				opts := SearchOptions{Limit: limit}
				b.Run(fmt.Sprintf("limit=%s/streamed", ls), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := e.SearchRankedPage("common rare", opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestStreamTopKSpeedup is the benchmark's claim as a regression
// guard: a small ranked window over a skewed workload must run
// markedly faster through the bounded consumer than materializing the
// whole answer — drained Search plus the RankResults full sort. The
// asserted floor is deliberately below the benchmarked ratio so CI
// timing noise cannot flake the suite.
func TestStreamTopKSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the materialized/streamed ratio; CI runs this in a no-race step")
	}
	e := streamBenchCorpus(20000, 48)
	opts := SearchOptions{Limit: 10}
	query := "common rare"
	materialize := func() {
		results, err := e.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := opts.Window(len(results))
		_ = e.RankResults(results, query)[lo:hi]
	}

	// Warm both paths once (first-touch schema child links, page cache).
	materialize()
	if _, _, err := e.SearchRankedPage(query, opts); err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	start := time.Now()
	for i := 0; i < rounds; i++ {
		materialize()
	}
	eagerTime := time.Since(start) / rounds

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, err := e.SearchRankedPage(query, opts); err != nil {
			t.Fatal(err)
		}
	}
	streamTime := time.Since(start) / rounds

	ratio := float64(eagerTime) / float64(streamTime)
	t.Logf("materialized %v, streamed %v (%.1fx faster)", eagerTime, streamTime, ratio)
	if ratio < 4 {
		t.Fatalf("streamed top-k only %.1fx faster than materialized (stream %v, materialized %v)",
			ratio, streamTime, eagerTime)
	}
}
