package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The -fig latency mode: a request-latency histogram over the serving
// engine, as JSON for dashboards and regression diffing. Each movie
// workload query runs -iters times through three serving modes — the
// doc-order page, the exact ranked page (cut from the cached result
// list the doc-order page filled), and the approximate ranked page
// (always pulled from the score-bounded stream) — and each (query, mode) cell reports nearest-rank
// percentiles over its own samples. One warm-up request per cell is
// excluded so the engine's lazily built caches and decoded posting
// blocks don't dominate the tail.

// latencyCell is one (query, mode) histogram in wire form. Percentile
// fields are microseconds, nearest-rank over Iters samples.
type latencyCell struct {
	Query  string  `json:"query"`
	Mode   string  `json:"mode"`
	Iters  int     `json:"iters"`
	Total  int     `json:"total"` // result count (-1 = approximate)
	MeanUS float64 `json:"mean_us"`
	MinUS  float64 `json:"min_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// latencyReport is the -fig latency JSON document.
type latencyReport struct {
	Corpus string        `json:"corpus"`
	Movies int           `json:"movies"`
	Seed   int64         `json:"seed"`
	Limit  int           `json:"limit"`
	Cells  []latencyCell `json:"cells"`
}

// percentileUS returns the nearest-rank q-th percentile of the sorted
// sample set, in microseconds.
func percentileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1].Nanoseconds()) / 1e3
}

// measure times one request fn iters times (after one excluded
// warm-up) and folds the samples into a cell.
func measure(query, mode string, iters int, fn func() (int, error)) (latencyCell, error) {
	total, err := fn() // warm-up, excluded
	if err != nil {
		return latencyCell{}, err
	}
	samples := make([]time.Duration, 0, iters)
	var sum time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		if total, err = fn(); err != nil {
			return latencyCell{}, err
		}
		d := time.Since(start)
		samples = append(samples, d)
		sum += d
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return latencyCell{
		Query: query, Mode: mode, Iters: iters, Total: total,
		MeanUS: float64(sum.Nanoseconds()) / float64(iters) / 1e3,
		MinUS:  float64(samples[0].Nanoseconds()) / 1e3,
		P50US:  percentileUS(samples, 0.50),
		P95US:  percentileUS(samples, 0.95),
		P99US:  percentileUS(samples, 0.99),
		MaxUS:  float64(samples[len(samples)-1].Nanoseconds()) / 1e3,
	}, nil
}

// runLatency builds the serving engine over the movie corpus and
// writes the latency report JSON to w.
func runLatency(root *xmltree.Node, movies int, seed int64, iters int, w io.Writer) error {
	const limit = 10
	eng := engine.New(root)
	rep := latencyReport{Corpus: "movies", Movies: movies, Seed: seed, Limit: limit}
	for _, q := range dataset.MovieQueries() {
		modes := []struct {
			name string
			fn   func() (int, error)
		}{
			{"page", func() (int, error) {
				p, err := eng.SearchPage(q, xseek.SearchOptions{Limit: limit})
				if err != nil {
					return 0, err
				}
				return p.Total, nil
			}},
			{"ranked_exact", func() (int, error) {
				p, err := eng.SearchRankedPage(q, xseek.SearchOptions{Limit: limit})
				if err != nil {
					return 0, err
				}
				return p.Total, nil
			}},
			{"ranked_approx", func() (int, error) {
				p, err := eng.SearchRankedPage(q, xseek.SearchOptions{Limit: limit, Accuracy: xseek.AccuracyApprox})
				if err != nil {
					return 0, err
				}
				return p.Total, nil
			}},
		}
		for _, m := range modes {
			cell, err := measure(q, m.name, iters, m.fn)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
