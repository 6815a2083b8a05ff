package xseek

import (
	"sort"

	"repro/internal/index"
)

// RankedResult is a search result with a relevance score. XSACT's demo
// lists results before the user ticks the ones to compare; ranking
// puts the most relevant first, as the paper's "result ranking"
// companion technique does.
type RankedResult struct {
	*Result
	// Score is a TF-IDF-style relevance score: higher is better.
	Score float64
}

// SearchRanked runs Search and orders the results by relevance:
// for each query term, the number of matching elements inside the
// result subtree (term frequency), dampened logarithmically and
// weighted by the term's inverse document frequency in the corpus.
// Ties keep document order, so ranking is deterministic.
func (e *Engine) SearchRanked(query string) ([]*RankedResult, error) {
	results, err := e.Search(query)
	if err != nil {
		return nil, err
	}
	return e.RankResults(results, query), nil
}

// SearchRankedPage returns the options' window of the relevance
// ordering plus the total result count: the lazy pipeline fed through
// the bounded consumer (SearchRankedPageWAND without its stats).
// Concatenating consecutive exact pages reproduces SearchRanked.
func (e *Engine) SearchRankedPage(query string, opts SearchOptions) ([]*RankedResult, int, error) {
	page, total, _, err := e.SearchRankedPageWAND(query, opts)
	return page, total, err
}

// RankResults scores every result of an already-computed result set
// and stable-sorts them — the scoring half of SearchRanked, and the
// reference ranking every bounded-consumer page equals a window of.
func (e *Engine) RankResults(results []*Result, query string) []*RankedResult {
	out := e.scoreResults(results, query)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// RankPage returns one window of the ranking RankResults would
// produce: the document-ordered result list (a cached Search outcome)
// runs through the same bounded consumer as a streamed page, so only
// the top Offset+Limit entries are ever ordered. The returned entries
// reference the input Result objects.
func (e *Engine) RankPage(results []*Result, query string, opts SearchOptions) []*RankedResult {
	page, _, _, _ := ConsumeRankedWAND(ResultHits(results), opts, e.StreamScorer(index.TokenizeQuery(query)), nil, nil)
	return page
}

// scoreResults computes each result's TF-IDF score in input order,
// using the corpus constants precomputed at engine construction.
func (e *Engine) scoreResults(results []*Result, query string) []*RankedResult {
	terms := index.TokenizeQuery(query)
	out := make([]*RankedResult, len(results))
	for i, r := range results {
		score := 0.0
		for _, t := range terms {
			idf := e.termIDF(t)
			if idf == 0 {
				continue
			}
			tf := index.CountUnder(e.idx.Lookup(t), r.Node.ID)
			if tf == 0 {
				continue
			}
			score += TermWeight(tf, idf)
		}
		out[i] = &RankedResult{Result: r, Score: score}
	}
	return out
}
