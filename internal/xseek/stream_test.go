package xseek

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/slca"
	"repro/internal/xmltree"
)

// randomNestedDoc builds a corpus with entities at several nesting
// depths (shelf* > book* > note*) and a small keyword vocabulary, so
// streamed entity mapping has to handle nested results, duplicate
// SLCA→entity hits, and out-of-order ancestor entities.
func randomNestedDoc(r *rand.Rand, shelves int) string {
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega"}
	pick := func() string { return vocab[r.Intn(len(vocab))] }
	var b strings.Builder
	b.WriteString("<lib>")
	for s := 0; s < shelves; s++ {
		b.WriteString("<shelf>")
		fmt.Fprintf(&b, "<code>%s</code>", pick())
		for k := 0; k < 1+r.Intn(3); k++ {
			b.WriteString("<book>")
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "<name>B%d-%d %s</name>", s, k, pick())
			}
			for n := 0; n < r.Intn(3); n++ {
				fmt.Fprintf(&b, "<note>%s %s</note>", pick(), pick())
			}
			b.WriteString("</book>")
		}
		b.WriteString("</shelf>")
	}
	b.WriteString("</lib>")
	return b.String()
}

// oracleResults is the reference result list for a compiled query: the
// naive SLCA oracle's matches through the explicit-set entity map.
func oracleResults(t *testing.T, q *Query) []*Result {
	t.Helper()
	want, err := q.eng.MapToEntities(slca.Naive(q.Lists))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

var streamQueries = []string{
	"alpha", "beta", "omega",
	"alpha beta", "gamma delta", "alpha omega",
	"alpha beta gamma",
}

// TestStreamEqualsExecute: draining the doc-order result stream, and
// Execute, must reproduce the naive oracle's result list exactly —
// same entities, same match nodes, same labels, same order — across
// random nested corpora and queries.
func TestStreamEqualsExecute(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 1+r.Intn(6))))
		for _, query := range streamQueries {
			q, err := e.Compile(query)
			if err != nil {
				continue // vocabulary miss on a tiny corpus
			}
			want := oracleResults(t, q)
			exec, err := q.Execute()
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, exec, want, fmt.Sprintf("trial %d query %q Execute", trial, query))
			rs, err := q.Stream()
			if err != nil {
				t.Fatal(err)
			}
			var got []*Result
			for {
				res, ok := rs.Next()
				if !ok {
					break
				}
				got = append(got, res)
			}
			if err := rs.Err(); err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, want, fmt.Sprintf("trial %d query %q", trial, query))
		}
	}
}

// TestStreamPrefixInvariance: the first k pulls of the stream equal
// the first k oracle results for every k — the property paging relies
// on.
func TestStreamPrefixInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 2+r.Intn(5))))
		for _, query := range streamQueries {
			q, err := e.Compile(query)
			if err != nil {
				continue
			}
			want := oracleResults(t, q)
			for _, k := range []int{1, 2, 5} {
				if k > len(want) {
					k = len(want)
				}
				rs, err := q.Stream()
				if err != nil {
					t.Fatal(err)
				}
				var got []*Result
				for i := 0; i < k; i++ {
					res, ok := rs.Next()
					if !ok {
						break
					}
					got = append(got, res)
				}
				compareResults(t, got, want[:k], fmt.Sprintf("trial %d query %q prefix %d", trial, query, k))
			}
		}
	}
}

// TestRankStreamEqualsEagerRankedPage: the streamed ranked page must
// be bit-identical to the same window of the reference ranking
// (RankResults over the oracle's result list) — scores, order, labels,
// window clamping, and totals — for every paging shape.
func TestRankStreamEqualsEagerRankedPage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	optsGrid := []SearchOptions{
		{},
		{Limit: 1},
		{Limit: 3},
		{Limit: 3, Offset: 2},
		{Limit: 100},
		{Offset: 4},
		{Limit: 2, Offset: 999},
		{Limit: -1, Offset: -5},
	}
	for trial := 0; trial < 25; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 2+r.Intn(6))))
		for _, query := range streamQueries {
			q, errQ := e.Compile(query)
			for _, opts := range optsGrid {
				got, gotTotal, errG := e.SearchRankedPage(query, opts)
				if (errQ == nil) != (errG == nil) {
					t.Fatalf("query %q opts %+v: compile err %v vs stream err %v", query, opts, errQ, errG)
				}
				if errQ != nil {
					continue
				}
				results := oracleResults(t, q)
				lo, hi := opts.Window(len(results))
				want, wantTotal := e.RankResults(results, query)[lo:hi], len(results)
				if gotTotal != wantTotal {
					t.Fatalf("query %q opts %+v: total %d want %d", query, opts, gotTotal, wantTotal)
				}
				if len(got) != len(want) {
					t.Fatalf("query %q opts %+v: %d results want %d", query, opts, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || got[i].Score != want[i].Score || got[i].Label != want[i].Label {
						t.Fatalf("query %q opts %+v: rank %d diverges: got (%q score %v) want (%q score %v)",
							query, opts, i, got[i].Label, got[i].Score, want[i].Label, want[i].Score)
					}
				}
			}
		}
	}
}

// TestExecutePageStreamMode: doc-order pages cut from the drained
// stream match the same windows of the oracle's result list, with the
// exact total.
func TestExecutePageStreamMode(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(23)))
	q, err := e.Compile("gps")
	if err != nil {
		t.Fatal(err)
	}
	want := oracleResults(t, q)
	for _, opts := range []SearchOptions{
		{Limit: 5},
		{Limit: 5, Offset: 10},
		{Limit: 100},
		{},
		{Limit: 5, Offset: 99},
	} {
		got, total, err := e.SearchPage("gps", opts)
		if err != nil {
			t.Fatal(err)
		}
		if total != len(want) {
			t.Fatalf("opts %+v: total = %d, want %d", opts, total, len(want))
		}
		lo, hi := opts.Window(len(want))
		compareResults(t, got, want[lo:hi], fmt.Sprintf("opts %+v", opts))
	}
}

// TestStreamErrorOnUnknownAlgorithm mirrors Execute's override
// contract on the lazy path.
func TestStreamErrorOnUnknownAlgorithm(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(4)))
	q, err := e.Compile("gps")
	if err != nil {
		t.Fatal(err)
	}
	q.Alg = "bogus"
	if _, err := q.Stream(); err == nil {
		t.Fatal("unknown algorithm must fail the stream")
	}
	if _, _, _, err := q.RankWAND(SearchOptions{Limit: 1}, nil); err == nil {
		t.Fatal("unknown algorithm must fail the ranked stream")
	}
}

func compareResults(t *testing.T, got, want []*Result, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (got %v want %v)", ctx, len(got), len(want), labels(got), labels(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node {
			t.Fatalf("%s: result %d entity %s, want %s", ctx, i, got[i].Node.ID, want[i].Node.ID)
		}
		if got[i].Match != want[i].Match {
			t.Fatalf("%s: result %d match %s, want %s", ctx, i, got[i].Match.ID, want[i].Match.ID)
		}
		if got[i].Label != want[i].Label {
			t.Fatalf("%s: result %d label %q, want %q", ctx, i, got[i].Label, want[i].Label)
		}
	}
}

func labels(rs []*Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Label
	}
	return out
}
