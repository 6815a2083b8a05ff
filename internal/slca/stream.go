package slca

import (
	"repro/internal/dewey"
	"repro/internal/index"
)

// This file holds the SLCA algorithms proper: the smallest-list-driven
// candidate computation of Indexed Lookup Eager and Scan Eager, pulled
// one result at a time through an Iterator. A consumer that stops
// after k results pays for the driving-list prefix that produced them,
// not for the whole result set — latency scales with the limit — and
// a drained iterator is the full SLCA set (Collect).

// Iterator yields SLCAs one at a time, in document order, each exactly
// once. Returned IDs are read-only views: safe to retain (they alias
// immutable index storage with pinned capacity), never to mutate in
// place.
type Iterator interface {
	Next() (dewey.ID, bool)
}

// streamer drives the shortest posting list through the other lists'
// cursors and emits surviving SLCAs. One tentative slot suffices for
// exactness: if v_i < v_j are driver nodes, candidate(v_j) either
// follows candidate(v_i) in document order or is a proper ancestor of
// it (both candidates are ancestors-or-self of their driver nodes, and
// subtrees nest or are disjoint). So a new candidate can only (a)
// duplicate the tentative, (b) replace a tentative it descends from,
// (c) die because it is an ancestor of the tentative, or (d) finalize
// the tentative — an already-emitted result is never invalidated
// later, which is what makes early termination safe.
type streamer struct {
	driver index.Iter
	others []index.Iter
	tent   dewey.ID
	// hasTent marks tent as set: the root's ID is empty (possibly nil),
	// so a nil check cannot tell "no tentative" from "root".
	hasTent bool
	done    bool
}

// Next implements Iterator.
func (s *streamer) Next() (dewey.ID, bool) {
	if s.done {
		return nil, false
	}
	for {
		v, ok := s.driver.Next()
		if !ok {
			break
		}
		cand := s.candidate(v)
		switch {
		case !s.hasTent:
			s.tent, s.hasTent = cand, true
		case s.tent.Equal(cand):
			// Duplicate of the tentative: merged.
		case s.tent.IsAncestorOf(cand):
			// Deeper (smaller) LCA under the tentative replaces it.
			s.tent = cand
		case cand.IsAncestorOf(s.tent):
			// The candidate contains an established smaller result.
		default:
			out := s.tent
			s.tent = cand
			return out, true
		}
	}
	s.done = true
	if s.hasTent {
		s.hasTent = false
		return s.tent, true
	}
	return nil, false
}

// candidate folds driver node v against every other list: the deepest
// LCA of the running candidate with v's closest left or right
// neighbour in each list.
func (s *streamer) candidate(v dewey.ID) dewey.ID {
	if len(s.others) == 0 {
		return v[:len(v):len(v)]
	}
	cand := v
	for _, it := range s.others {
		best := dewey.Root()
		if r, ok := it.Seek(v); ok {
			if l := cand.PrefixLCA(r); l.Level() >= best.Level() {
				best = l
			}
		}
		if p, ok := it.PredOf(v); ok {
			if l := cand.PrefixLCA(p); l.Level() > best.Level() {
				best = l
			}
		}
		cand = best
	}
	return cand
}

// StreamIters streams the SLCAs of the posting sequences behind the
// given cursors, with driver the cursor over the smallest (or
// exactly-counted, on the live path) sequence. All sequences must be
// non-empty; callers that cannot guarantee that should use Stream or
// check document frequencies first.
func StreamIters(driver index.Iter, others []index.Iter) Iterator {
	return &streamer{driver: driver, others: others}
}

// ScanStream runs Scan Eager: the non-driver lists advance with
// linear merge pointers.
func ScanStream(lists []index.PostingList) Iterator {
	return streamLists(lists, index.ListIterLinear)
}

// IndexedLookupStream runs Indexed Lookup Eager: the non-driver lists
// are probed with galloping searches, so a rare driving term touches
// only O(|S1|·k·log|S|) postings no matter how long the common lists
// are.
func IndexedLookupStream(lists []index.PostingList) Iterator {
	return streamLists(lists, index.ListIter)
}

// Stream returns a streaming SLCA iterator over the lists, picking the
// seek discipline with the planner (scan below the skew threshold,
// gallop above).
func Stream(lists []index.PostingList) Iterator {
	return StreamWith(Plan(index.StatsOf(lists)), lists)
}

// StreamWith returns a streaming iterator honouring a forced algorithm
// choice. AlgAuto (and the empty string) defer to the planner;
// AlgNaive materializes the oracle's answer and streams it (tests
// only); unknown names return an empty iterator.
func StreamWith(alg Algorithm, lists []index.PostingList) Iterator {
	switch alg {
	case AlgScanEager:
		return ScanStream(lists)
	case AlgIndexedLookup:
		return IndexedLookupStream(lists)
	case AlgNaive:
		return IterOver(Naive(lists))
	case AlgAuto, "":
		return StreamWith(Plan(index.StatsOf(lists)), lists)
	default:
		return IterOver(nil)
	}
}

// streamLists builds the driver/others split for materialized lists.
func streamLists(lists []index.PostingList, mkIter func(index.PostingList) index.Iter) Iterator {
	if len(lists) == 0 {
		return IterOver(nil)
	}
	for _, l := range lists {
		if len(l) == 0 {
			return IterOver(nil)
		}
	}
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	others := make([]index.Iter, 0, len(lists)-1)
	for i, l := range lists {
		if i != smallest {
			others = append(others, mkIter(l))
		}
	}
	return StreamIters(index.ListIter(lists[smallest]), others)
}

// sliceIterator adapts a materialized ID slice to the Iterator shape.
type sliceIterator struct {
	ids []dewey.ID
	pos int
}

// IterOver streams an already-computed, document-ordered SLCA slice —
// the bridge for the naive oracle.
func IterOver(ids []dewey.ID) Iterator { return &sliceIterator{ids: ids} }

func (s *sliceIterator) Next() (dewey.ID, bool) {
	if s.pos >= len(s.ids) {
		return nil, false
	}
	v := s.ids[s.pos]
	s.pos++
	return v, true
}

// filterTee drops stream elements the keep predicate rejects and
// reports survivors to tee before yielding them.
type filterTee struct {
	it   Iterator
	keep func(dewey.ID) bool
	tee  func(dewey.ID)
}

// FilterTee wraps a stream with an element filter and an observation
// hook; either function may be nil. The sharded fan-out uses it to
// drop spine-owned SLCAs from a shard's stream while collecting the
// kept ones for the cross-shard fix-up pass.
func FilterTee(it Iterator, keep func(dewey.ID) bool, tee func(dewey.ID)) Iterator {
	return &filterTee{it: it, keep: keep, tee: tee}
}

func (f *filterTee) Next() (dewey.ID, bool) {
	for {
		v, ok := f.it.Next()
		if !ok {
			return nil, false
		}
		if f.keep != nil && !f.keep(v) {
			continue
		}
		if f.tee != nil {
			f.tee(v)
		}
		return v, true
	}
}

// Collect drains it into the full, document-ordered SLCA set.
func Collect(it Iterator) []dewey.ID {
	var out []dewey.ID
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
