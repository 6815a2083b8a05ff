package xseek

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// wandBenchCorpus builds n sibling entities where every entity matches
// a broad two-term query, so the streamed path has no rare term to
// lean on and must score the whole candidate stream. A small fraction
// of heavy entities carries ~8 occurrences of both terms; with
// scatter=0 they are front-loaded in document order, so the top-k heap
// saturates within the first few blocks and the block-max bounds rule
// out everything after. scatter>0 spreads a heavy entity into every
// scatter-th slot instead, planting a high block maximum in nearly
// every block — the shape where bounds cannot prune and WAND should
// merely stay competitive.
func wandBenchCorpus(n, scatter int) *Engine {
	var b strings.Builder
	b.WriteString("<catalog>")
	heavyCount := n/50 + 1
	for i := 0; i < n; i++ {
		heavy := (scatter == 0 && i < heavyCount) || (scatter > 0 && i%scatter == 0)
		b.WriteString("<item>")
		reps := 1
		if heavy {
			reps = 8
		}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(&b, "<f%d>common broad</f%d>", r, r)
		}
		for a := 0; a < 24; a++ {
			fmt.Fprintf(&b, "<attr%d>v%d</attr%d>", a, (i+a)%97, a)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return NewParallel(xmltree.MustParseString(b.String()))
}

// rankUnpruned runs the lazy pipeline through the bounded consumer with
// nil bounds, so every hit is scored — the baseline score-bound pruning
// is measured against.
func rankUnpruned(e *Engine, query string, opts SearchOptions) ([]*RankedResult, int, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, 0, err
	}
	it, err := q.SLCAIter()
	if err != nil {
		return nil, 0, err
	}
	page, total, _, err := ConsumeRankedWAND(NewEntityStream(it, e.root, e.schema), opts, e.StreamScorer(q.Terms), nil, nil)
	return page, total, err
}

// BenchmarkWANDTopK contrasts the unpruned consumer (score every
// candidate, heap-select the window) with score-bound pruning in both
// accuracy modes, across heavy-entity placement ×
// window size. BENCH_WAND.json records a run. scatter=front is the
// prunable shape; scatter=48 poisons every block's maximum so the
// bounds buy nothing — the regression guard that pruning bookkeeping
// stays cheap.
func BenchmarkWANDTopK(b *testing.B) {
	const nEntities = 20000
	for _, scatter := range []int{0, 48} {
		ss := "front"
		if scatter > 0 {
			ss = fmt.Sprint(scatter)
		}
		b.Run(fmt.Sprintf("scatter=%s", ss), func(b *testing.B) {
			e := wandBenchCorpus(nEntities, scatter)
			for _, limit := range []int{10, 100} {
				opts := SearchOptions{Limit: limit}
				b.Run(fmt.Sprintf("limit=%d/streamed", limit), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := rankUnpruned(e, "common broad", opts); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("limit=%d/wand-exact", limit), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, _, err := e.SearchRankedPageWAND("common broad", opts); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("limit=%d/wand-approx", limit), func(b *testing.B) {
					b.ReportAllocs()
					aopts := opts
					aopts.Accuracy = AccuracyApprox
					for i := 0; i < b.N; i++ {
						if _, _, _, err := e.SearchRankedPageWAND("common broad", aopts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestWANDTopKSpeedup is the benchmark's claim as a regression guard:
// on the prunable shape (broad low-skew query, heavy entities
// front-loaded) a small approximate window must beat the same consumer
// with nil bounds by at least 2x, with blocks actually skipped. The floor sits well
// below the benchmarked ratio (BENCH_WAND.json records the real
// number) so CI timing noise cannot flake the suite. Exact mode still
// has to count the tail for the total, so its ratio is only logged.
func TestWANDTopKSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the streamed/WAND ratio; CI runs this in a no-race step")
	}
	e := wandBenchCorpus(20000, 0)
	opts := SearchOptions{Limit: 10}
	aopts := opts
	aopts.Accuracy = AccuracyApprox
	query := "common broad"

	// Warm every path once (first-touch schema child links, page cache).
	if _, _, err := rankUnpruned(e, query, opts); err != nil {
		t.Fatal(err)
	}
	_, _, st, err := e.SearchRankedPageWAND(query, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Bounded || st.BlocksSkipped == 0 || st.Pruned == 0 {
		t.Fatalf("prunable shape did not prune: %+v", st)
	}
	if _, _, _, err := e.SearchRankedPageWAND(query, opts); err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, err := rankUnpruned(e, query, opts); err != nil {
			t.Fatal(err)
		}
	}
	streamTime := time.Since(start) / rounds

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, _, err := e.SearchRankedPageWAND(query, aopts); err != nil {
			t.Fatal(err)
		}
	}
	approxTime := time.Since(start) / rounds

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, _, err := e.SearchRankedPageWAND(query, opts); err != nil {
			t.Fatal(err)
		}
	}
	exactTime := time.Since(start) / rounds

	ratio := float64(streamTime) / float64(approxTime)
	t.Logf("streamed %v, wand-exact %v (%.1fx), wand-approx %v (%.1fx faster)",
		streamTime, exactTime, float64(streamTime)/float64(exactTime), approxTime, ratio)
	if ratio < 2 {
		t.Fatalf("approximate WAND top-k only %.1fx faster than streamed (wand %v, streamed %v)",
			ratio, approxTime, streamTime)
	}
}
