package shard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestShardedStreamEquivalence: the streamed fan-out must be
// bit-identical to the monolithic engine at K ∈ {1, 2, 8} — ranked
// windows equal to the same window of the monolithic RankResults
// reference (scores included), same exact totals, same errors, and a
// doc-order cursor that drains to the same result list.
func TestShardedStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	pageGrid := []xseek.SearchOptions{
		{Limit: 1}, {Limit: 2}, {Limit: 3, Offset: 1},
		{Limit: 2, Offset: 2}, {Limit: 100}, {Offset: 1}, {},
		{Limit: 4, Offset: 999},
	}
	for ti := 0; ti < 15; ti++ {
		doc := randomDoc(r, vocab)
		root := xmltree.MustParseString(doc)
		mono := xseek.NewParallel(root)
		for _, k := range []int{1, 2, 8} {
			sharded := Build(root, k)
			for qi := 0; qi < 8; qi++ {
				n := r.Intn(3) + 1
				terms := make([]string, n)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				query := strings.Join(terms, " ")

				want, wantErr := mono.Search(query)

				// Doc-order cursor drains to the monolithic result list.
				cur, curErr := sharded.SearchStream(query)
				if !sameError(wantErr, curErr) {
					t.Fatalf("tree %d K=%d query %q: cursor err %v vs %v", ti, k, query, curErr, wantErr)
				}
				if curErr == nil {
					var got []*xseek.Result
					for {
						res, ok := cur.Next()
						if !ok {
							break
						}
						got = append(got, res)
					}
					if cur.Err() != nil {
						t.Fatalf("tree %d K=%d query %q: cursor failed: %v", ti, k, query, cur.Err())
					}
					if resultKey(got) != resultKey(want) {
						t.Fatalf("tree %d K=%d query %q cursor:\n got  %s\n want %s",
							ti, k, query, resultKey(got), resultKey(want))
					}
				}

				for _, opts := range pageGrid {
					wantPage, wantTotal, wantPageErr := func() ([]*xseek.RankedResult, int, error) {
						if wantErr != nil {
							return nil, 0, wantErr
						}
						lo, hi := opts.Window(len(want))
						return mono.RankResults(want, query)[lo:hi], len(want), nil
					}()
					gotPage, gotTotal, _, gotErr := sharded.SearchRankedPageWAND(query, opts)
					if !sameError(wantPageErr, gotErr) {
						t.Fatalf("tree %d K=%d query %q page %+v: err %v vs %v",
							ti, k, query, opts, gotErr, wantPageErr)
					}
					if gotErr != nil {
						continue
					}
					if gotTotal != wantTotal {
						t.Fatalf("tree %d K=%d query %q page %+v: total %d want %d",
							ti, k, query, opts, gotTotal, wantTotal)
					}
					if rankedKey(gotPage) != rankedKey(wantPage) {
						t.Fatalf("tree %d K=%d query %q page %+v:\n got  %s\n want %s",
							ti, k, query, opts, rankedKey(gotPage), rankedKey(wantPage))
					}
				}
			}
		}
	}
}
