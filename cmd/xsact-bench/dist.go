package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The -fig dist mode: the cost of distribution. For each leg count K
// the movie workload runs twice — through the in-process sharded
// engine and through an HTTP coordinator fanned out over K real
// loopback shard servers — and the report pairs the two latency
// histograms per (K, query, mode). The result pages are checked
// bit-identical along the way (score bits and order), so the numbers
// compare equal work, and a divergence fails the run rather than
// producing a misleading report.

const distCorpus = "movies"

// distReport is the -fig dist JSON document.
type distReport struct {
	Corpus string     `json:"corpus"`
	Movies int        `json:"movies"`
	Seed   int64      `json:"seed"`
	Limit  int        `json:"limit"`
	Legs   []int      `json:"legs"`
	Cells  []distCell `json:"cells"`
}

// distCell pairs the local and distributed histograms for one
// (K, query, mode).
type distCell struct {
	K     int         `json:"k"`
	Local latencyCell `json:"local"`
	Dist  latencyCell `json:"dist"`
}

// startBenchLegs boots k shard servers on loopback listeners and
// returns their endpoints plus a shutdown func.
func startBenchLegs(k int, doc string) ([]string, func(), error) {
	endpoints := make([]string, 0, k)
	var closers []func()
	shutdown := func() {
		for _, c := range closers {
			c()
		}
	}
	for g := 0; g < k; g++ {
		sv, err := dist.NewServer(g, k)
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		root, err := xmltree.ParseString(doc)
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		if err := sv.AddCorpus(distCorpus, root); err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("leg %d: %w", g, err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		hs := &http.Server{Handler: sv}
		go hs.Serve(l)
		closers = append(closers, func() { hs.Close() })
		endpoints = append(endpoints, "http://"+l.Addr().String())
	}
	return endpoints, shutdown, nil
}

// runDist writes the distribution-cost report JSON to w.
func runDist(root *xmltree.Node, movies int, seed int64, iters int, w io.Writer) error {
	const limit = 10
	legCounts := []int{1, 2, 4}
	doc := xmltree.XMLString(root)
	rep := distReport{Corpus: distCorpus, Movies: movies, Seed: seed, Limit: limit, Legs: legCounts}

	for _, k := range legCounts {
		local := shard.Build(xmltree.MustParseString(doc), k)
		endpoints, shutdown, err := startBenchLegs(k, doc)
		if err != nil {
			return err
		}
		co, err := dist.Dial(endpoints, distCorpus, xmltree.MustParseString(doc), dist.Config{})
		if err != nil {
			shutdown()
			return err
		}
		for _, q := range dataset.MovieQueries() {
			modes := []struct {
				name string
				opts xseek.SearchOptions
			}{
				{"ranked_exact", xseek.SearchOptions{Limit: limit}},
				{"ranked_approx", xseek.SearchOptions{Limit: limit, Accuracy: xseek.AccuracyApprox}},
			}
			for _, m := range modes {
				// Equal work or no numbers: the two sides must produce the
				// same page bit for bit before their latencies are compared.
				lp, _, _, lerr := local.SearchRankedPageWAND(q, m.opts)
				dp, _, _, derr := co.SearchRankedPageWAND(q, m.opts)
				if (lerr == nil) != (derr == nil) {
					shutdown()
					return fmt.Errorf("K=%d %q %s: err %v vs %v", k, q, m.name, derr, lerr)
				}
				if lerr == nil && procPageKey(lp) != procPageKey(dp) {
					shutdown()
					return fmt.Errorf("K=%d %q %s: pages diverge", k, q, m.name)
				}

				opts := m.opts
				lc, err := measure(q, m.name, iters, func() (int, error) {
					_, total, _, err := local.SearchRankedPageWAND(q, opts)
					return total, err
				})
				if err != nil {
					shutdown()
					return err
				}
				dc, err := measure(q, m.name, iters, func() (int, error) {
					_, total, _, err := co.SearchRankedPageWAND(q, opts)
					return total, err
				})
				if err != nil {
					shutdown()
					return err
				}
				rep.Cells = append(rep.Cells, distCell{K: k, Local: lc, Dist: dc})
			}
		}
		shutdown()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// procPageKey fingerprints a ranked page down to the score bits.
func procPageKey(rs []*xseek.RankedResult) string {
	key := ""
	for _, r := range rs {
		key += fmt.Sprintf("%s@%016x;", r.Node.ID, math.Float64bits(r.Score))
	}
	return key
}
