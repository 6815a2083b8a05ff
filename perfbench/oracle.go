package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/xmltree"
)

// The correctness oracle. It runs untimed after the measurement and
// fails the run on any mismatch.

// checked reports whether the oracle replays the responses to q: one
// query in every checkEvery, chosen by a hash of the query so the
// choice is the same on every run.
func (w *workload) checked(q string) bool {
	if w.checkEvery <= 1 {
		return true
	}
	h := newHasher()
	h.str(q)
	return uint64(h)%uint64(w.checkEvery) == 0
}

// checkReads replays the recorded reads of every query check selects
// against the reference target and compares fingerprints. Each query's
// ranked page is computed once; an approximate page must match the
// exact one (its total aside), and a compare must resolve its selection
// on a page of the same length.
func checkReads(recs []record, ref target, workers int, check func(string) bool) []string {
	byQuery := make(map[string][]record)
	var queries []string
	for _, r := range recs {
		if !check(r.o.query) {
			continue
		}
		if _, ok := byQuery[r.o.query]; !ok {
			queries = append(queries, r.o.query)
		}
		byQuery[r.o.query] = append(byQuery[r.o.query], r)
	}
	var (
		mu   sync.Mutex
		bad  []string
		next = make(chan string)
		wg   sync.WaitGroup
	)
	report := func(msg string) {
		mu.Lock()
		if len(bad) < 10 {
			bad = append(bad, msg)
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				checkQuery(q, byQuery[q], ref, report)
			}
		}()
	}
	for _, q := range queries {
		next <- q
	}
	close(next)
	wg.Wait()
	return bad
}

func checkQuery(q string, recs []record, ref target, report func(string)) {
	rr, err := ref.ranked(q, false)
	if err != nil {
		report(fmt.Sprintf("oracle ranked %q: %v", q, err))
		return
	}
	pr, err := ref.page(q)
	if err != nil {
		report(fmt.Sprintf("oracle page %q: %v", q, err))
		return
	}
	compares := make(map[[2]uint64]uint64)
	for _, r := range recs {
		var want uint64
		switch r.o.kind {
		case opRanked:
			want = rr.fp(r.o.approx)
		case opPage:
			want = pr.fp()
		case opCompare:
			if r.n != len(rr.descs) {
				report(fmt.Sprintf("%v: compared on a page of %d results, oracle page has %d", r.o, r.n, len(rr.descs)))
				continue
			}
			key := [2]uint64{uint64(r.o.selN), r.o.selSeed}
			fp, ok := compares[key]
			if !ok {
				cr, err := ref.compare(rr.h, r.o.selection(r.n))
				if err != nil {
					report(fmt.Sprintf("oracle %v: %v", r.o, err))
					continue
				}
				fp = cr.fp()
				compares[key] = fp
			}
			want = fp
		}
		if r.fp != want {
			report(fmt.Sprintf("%v: response fingerprint %016x, oracle %016x", r.o, r.fp, want))
		}
	}
}

// checkLive is live-write's end-of-run check. With the clients stopped
// and no compaction in flight, it snapshots the live engine with its
// pending journal, reloads it, and rebuilds a cold engine from the live
// XML. The entity multiset of the live and reloaded corpora must equal
// the base corpus plus every acknowledged add minus every acknowledged
// removal, and every probe query must answer identically on all three.
func checkLive(lt *liveTarget, c *corpus, probes int) []string {
	if err := lt.settle(); err != nil {
		return []string{err.Error()}
	}
	var bad []string
	if pendingOps(lt.eng) == 0 {
		// Make sure the snapshot carries a journal.
		n, err := xmltree.ParseString(c.fragments[0])
		if err == nil {
			_, err = lt.eng.AddEntity(n)
		}
		if err != nil {
			return []string{fmt.Sprintf("journal add: %v", err)}
		}
		lt.added = append(lt.added, c.fragments[0])
	}
	liveXML := xmltree.XMLString(lt.eng.Root())
	var snap bytes.Buffer
	if err := persist.Save(&snap, lt.eng, persist.Meta{CorpusName: corpusName}); err != nil {
		return []string{fmt.Sprintf("save live snapshot: %v", err)}
	}
	root, err := xmltree.ParseString(liveXML)
	if err != nil {
		return []string{fmt.Sprintf("parse live XML: %v", err)}
	}
	reloaded, _, err := persist.Load(&snap, root, engine.Config{})
	if err != nil {
		return []string{fmt.Sprintf("reload live snapshot: %v", err)}
	}
	coldRoot, err := xmltree.ParseString(liveXML)
	if err != nil {
		return []string{fmt.Sprintf("parse live XML: %v", err)}
	}
	cold := engine.New(coldRoot)

	base, err := xmltree.Parse(bytes.NewReader(c.xml))
	if err != nil {
		return []string{fmt.Sprintf("parse base XML: %v", err)}
	}
	want := entityCounts(base)
	for _, f := range lt.added {
		want[canonical(f)]++
	}
	for _, x := range lt.removed {
		want[x]--
	}
	for name, eng := range map[string]*engine.Engine{"live": lt.eng, "reloaded": reloaded} {
		if diff := countsDiff(want, entityCounts(eng.Root())); diff != "" {
			bad = append(bad, fmt.Sprintf("%s corpus lost acknowledged writes: %s", name, diff))
		}
	}

	r := rand.New(rand.NewSource(c.seed ^ 0x9b0be))
	targets := []target{lt.engineTarget, engineTarget{reloaded}, engineTarget{cold}}
	names := []string{"live", "reloaded", "cold rebuild"}
	for i := 0; i < probes && len(bad) < 10; i++ {
		q := c.query(r)
		cmp := op{kind: opCompare, query: q, selN: 2 + r.Intn(3), selSeed: r.Uint64()}
		var fps [3][3]uint64
		for t, tg := range targets {
			rr, err := tg.ranked(q, false)
			if err != nil {
				bad = append(bad, fmt.Sprintf("probe %q on %s: %v", q, names[t], err))
				continue
			}
			pr, err := tg.page(q)
			if err != nil {
				bad = append(bad, fmt.Sprintf("probe %q on %s: %v", q, names[t], err))
				continue
			}
			fps[t][0], fps[t][1] = rr.fp(false), pr.fp()
			if idx := cmp.selection(len(rr.descs)); idx != nil {
				cr, err := tg.compare(rr.h, idx)
				if err != nil {
					bad = append(bad, fmt.Sprintf("probe %v on %s: %v", cmp, names[t], err))
					continue
				}
				fps[t][2] = cr.fp()
			}
		}
		for t := 1; t < len(targets); t++ {
			if fps[t] != fps[0] {
				bad = append(bad, fmt.Sprintf("probe %q: %s answers differ from live", q, names[t]))
			}
		}
	}
	return bad
}

// entityCounts is the multiset of a corpus's top-level entities, by
// their XML text (IDs are positional and change on compaction).
func entityCounts(root *xmltree.Node) map[string]int {
	m := make(map[string]int)
	for _, e := range root.ChildElements() {
		m[xmltree.XMLString(e)]++
	}
	return m
}

func canonical(frag string) string {
	n, err := xmltree.ParseString(frag)
	if err != nil {
		return frag
	}
	return xmltree.XMLString(n)
}

func countsDiff(want, got map[string]int) string {
	var missing, extra int
	for k, n := range want {
		if d := n - got[k]; d > 0 {
			missing += d
		} else {
			extra -= d
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			extra += n
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("%d entities missing, %d unexpected", missing, extra)
}
