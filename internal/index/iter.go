package index

import (
	"sort"

	"repro/internal/dewey"
)

// This file is the lazy counterpart of merge.go: pull-based cursors
// over document-ordered posting lists, composable the same way the
// eager MergeLists/Without compose materialized lists. The streaming
// SLCA algorithms (package slca) and the live read path (package
// update) are built on these, so a top-k query touches only the
// postings its result window actually needs.

// Iter is a forward cursor over a document-ordered posting sequence.
// The cursor sits before an element; Peek returns it without moving,
// Next returns it and moves past, and Seek moves forward to the first
// element >= id (and peeks it). Seek targets must be non-decreasing
// across calls — the cursor never moves backward.
//
// PredOf answers the one backward-looking question SLCA needs — the
// last element strictly before id in the whole sequence — without
// moving the cursor, so a streaming driver can probe both neighbours
// of a position.
type Iter interface {
	// Peek returns the element at the cursor without advancing.
	Peek() (dewey.ID, bool)
	// Next returns the element at the cursor and advances past it.
	Next() (dewey.ID, bool)
	// Seek advances the cursor to the first element >= id and returns
	// it (peek semantics). Targets must be non-decreasing.
	Seek(id dewey.ID) (dewey.ID, bool)
	// PredOf returns the last element of the whole sequence that is
	// strictly before id in document order. It never moves the cursor.
	PredOf(id dewey.ID) (dewey.ID, bool)
}

// sliceIter cursors over one materialized posting list. Seek uses
// galloping (exponential) search from the cursor — O(log gap), so a
// full pass of monotone seeks costs O(n) and a sparse pass costs near
// the information-theoretic bound — optionally accelerated by a
// prebuilt skip ladder (see skips.go).
type sliceIter struct {
	list  PostingList
	skips PostingList // skips[b] == list[(b+1)*skipInterval-1]; may be nil
	pos   int
	// linear makes Seek advance one element at a time — the merge
	// discipline of the Scan Eager SLCA iterator, which is cheaper
	// than galloping when the driver is about as dense as this list.
	linear bool
}

// ListIter returns a galloping cursor over list.
func ListIter(list PostingList) Iter { return &sliceIter{list: list} }

// ListIterLinear returns a cursor whose Seek advances linearly, for
// callers that expect to visit most elements (streamed scans).
func ListIterLinear(list PostingList) Iter { return &sliceIter{list: list, linear: true} }

func (it *sliceIter) Peek() (dewey.ID, bool) {
	if it.pos >= len(it.list) {
		return nil, false
	}
	return it.list[it.pos], true
}

func (it *sliceIter) Next() (dewey.ID, bool) {
	if it.pos >= len(it.list) {
		return nil, false
	}
	v := it.list[it.pos]
	it.pos++
	return v, true
}

func (it *sliceIter) Seek(id dewey.ID) (dewey.ID, bool) {
	n := len(it.list)
	if it.pos >= n {
		return nil, false
	}
	if it.list[it.pos].Compare(id) >= 0 {
		return it.list[it.pos], true
	}
	if it.linear {
		for it.pos < n && it.list[it.pos].Compare(id) < 0 {
			it.pos++
		}
	} else {
		it.gallop(id)
	}
	if it.pos >= n {
		return nil, false
	}
	return it.list[it.pos], true
}

// gallop advances pos to the first element >= id. Precondition:
// list[pos] < id and pos < len(list).
func (it *sliceIter) gallop(id dewey.ID) {
	n := len(it.list)
	lo := it.pos + 1
	if it.skips != nil {
		// Whole blocks whose last element is < id cannot contain the
		// target. Gallop the ladder forward from the cursor's own block
		// — monotone seek sequences mostly land in the same or the next
		// block, so this costs O(log blocks-skipped) instead of a
		// binary search over the whole ladder — then binary-search the
		// bracketed ladder range and finally the surviving block.
		nb := len(it.skips)
		sb := it.pos / skipInterval
		if sb < nb && it.skips[sb].Compare(id) < 0 {
			bound := 1
			for sb+bound < nb && it.skips[sb+bound].Compare(id) < 0 {
				bound <<= 1
			}
			start := sb + 1
			if bound > 1 {
				start = sb + bound>>1 // previous probe, known < id
			}
			end := sb + bound + 1
			if end > nb {
				end = nb
			}
			sb = start + sort.Search(end-start, func(k int) bool { return it.skips[start+k].Compare(id) >= 0 })
		}
		if p := sb * skipInterval; p > lo {
			lo = p
		}
		hi := n
		if sb < len(it.skips) {
			if h := (sb + 1) * skipInterval; h < hi {
				hi = h
			}
		}
		it.pos = lo + sort.Search(hi-lo, func(k int) bool { return it.list[lo+k].Compare(id) >= 0 })
		return
	}
	// Exponential search from the cursor: double the step until the
	// probe reaches an element >= id (or the end), then binary-search
	// the bracketed range.
	bound := 1
	for lo+bound < n && it.list[lo+bound].Compare(id) < 0 {
		bound <<= 1
	}
	start := lo
	if bound > 1 {
		start = lo + bound>>1 // previous probe, known < id
	}
	end := lo + bound + 1
	if end > n {
		end = n
	}
	it.pos = start + sort.Search(end-start, func(k int) bool { return it.list[start+k].Compare(id) >= 0 })
}

func (it *sliceIter) PredOf(id dewey.ID) (dewey.ID, bool) {
	n := len(it.list)
	p := it.pos
	// Fast path: right after Seek(id) the cursor sits exactly at the
	// first element >= id, making pos-1 the predecessor.
	ok := (p == n || it.list[p].Compare(id) >= 0) && (p == 0 || it.list[p-1].Compare(id) < 0)
	if !ok {
		p = sort.Search(n, func(k int) bool { return it.list[k].Compare(id) >= 0 })
	}
	if p == 0 {
		return nil, false
	}
	return it.list[p-1], true
}

// mergeIter is the lazy MergeLists: a k-way merge over child cursors
// covering pairwise-disjoint node sets. Each operation scans the k
// heads (k is the shard fan-out plus delta — single digits), which
// beats heap bookkeeping at that size.
type mergeIter struct {
	children []Iter
}

// MergeIter returns a cursor over the merged document-order sequence
// of the children, which must cover pairwise-disjoint node sets (the
// MergeLists precondition). Single-child merges return the child.
func MergeIter(children ...Iter) Iter {
	live := make([]Iter, 0, len(children))
	for _, c := range children {
		if c != nil {
			live = append(live, c)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return &mergeIter{children: live}
}

// min returns the child index holding the smallest head, or -1 when
// every child is exhausted.
func (it *mergeIter) min() int {
	best := -1
	var bestID dewey.ID
	for i, c := range it.children {
		v, ok := c.Peek()
		if !ok {
			continue
		}
		if best == -1 || v.Compare(bestID) < 0 {
			best, bestID = i, v
		}
	}
	return best
}

func (it *mergeIter) Peek() (dewey.ID, bool) {
	if b := it.min(); b >= 0 {
		return it.children[b].Peek()
	}
	return nil, false
}

func (it *mergeIter) Next() (dewey.ID, bool) {
	if b := it.min(); b >= 0 {
		return it.children[b].Next()
	}
	return nil, false
}

func (it *mergeIter) Seek(id dewey.ID) (dewey.ID, bool) {
	for _, c := range it.children {
		if v, ok := c.Peek(); ok && v.Compare(id) < 0 {
			c.Seek(id)
		}
	}
	return it.Peek()
}

func (it *mergeIter) PredOf(id dewey.ID) (dewey.ID, bool) {
	var best dewey.ID
	found := false
	for _, c := range it.children {
		if p, ok := c.PredOf(id); ok && (!found || p.Compare(best) > 0) {
			best, found = p, true
		}
	}
	return best, found
}

// withoutIter is the lazy Without: it presents the inner sequence
// minus every element under a tombstoned subtree, skipping each
// excluded block with a single inner Seek past the subtree instead of
// filtering element by element.
type withoutIter struct {
	inner Iter
	excl  []dewey.ID // sorted, pairwise disjoint subtree roots
	done  bool
}

// WithoutIter returns a cursor over inner minus every element that
// falls under one of the exclude subtrees. exclude must be sorted in
// document order and pairwise disjoint (the Without precondition).
func WithoutIter(inner Iter, exclude []dewey.ID) Iter {
	if len(exclude) == 0 {
		return inner
	}
	return &withoutIter{inner: inner, excl: exclude}
}

// tombOf returns the exclude root whose subtree contains id, if any.
func (it *withoutIter) tombOf(id dewey.ID) (dewey.ID, bool) {
	k := sort.Search(len(it.excl), func(i int) bool { return it.excl[i].Compare(id) > 0 })
	if k == 0 {
		return nil, false
	}
	if t := it.excl[k-1]; t.IsAncestorOrSelf(id) {
		return t, true
	}
	return nil, false
}

// subtreeBound returns the smallest ID that compares greater than
// every node in t's subtree: t with its last component incremented.
func subtreeBound(t dewey.ID) dewey.ID {
	b := t.Clone()
	b[len(b)-1]++
	return b
}

func (it *withoutIter) Peek() (dewey.ID, bool) {
	if it.done {
		return nil, false
	}
	for {
		v, ok := it.inner.Peek()
		if !ok {
			return nil, false
		}
		t, bad := it.tombOf(v)
		if !bad {
			return v, true
		}
		if len(t) == 0 { // the root is tombstoned: nothing survives
			it.done = true
			return nil, false
		}
		it.inner.Seek(subtreeBound(t))
	}
}

func (it *withoutIter) Next() (dewey.ID, bool) {
	if _, ok := it.Peek(); !ok {
		return nil, false
	}
	return it.inner.Next()
}

func (it *withoutIter) Seek(id dewey.ID) (dewey.ID, bool) {
	if it.done {
		return nil, false
	}
	it.inner.Seek(id)
	return it.Peek()
}

func (it *withoutIter) PredOf(id dewey.ID) (dewey.ID, bool) {
	cur := id
	for {
		p, ok := it.inner.PredOf(cur)
		if !ok {
			return nil, false
		}
		t, bad := it.tombOf(p)
		if !bad {
			return p, true
		}
		if len(t) == 0 {
			return nil, false
		}
		// p and everything between t and cur lie inside the excluded
		// subtree (p was the last inner element < cur); retry strictly
		// before the subtree root. t decreases every round, so this
		// terminates.
		cur = t
	}
}

// emptyIter is an exhausted cursor.
type emptyIter struct{}

// EmptyIter returns a cursor over the empty sequence.
func EmptyIter() Iter { return emptyIter{} }

func (emptyIter) Peek() (dewey.ID, bool)           { return nil, false }
func (emptyIter) Next() (dewey.ID, bool)           { return nil, false }
func (emptyIter) Seek(dewey.ID) (dewey.ID, bool)   { return nil, false }
func (emptyIter) PredOf(dewey.ID) (dewey.ID, bool) { return nil, false }

// CollectIter drains it into a materialized posting list — the bridge
// back to the list algebra (and the equivalence oracle in tests).
func CollectIter(it Iter) PostingList {
	var out PostingList
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Counter counts postings under successive subtree roots with a
// monotone cursor: roots must arrive in document order (the order
// streamed results are emitted in), so each count gallops forward from
// the previous root instead of binary-searching the whole list. The
// count equals CountUnder exactly.
type Counter struct {
	list PostingList
	pos  int
}

// NewCounter returns a Counter over list.
func NewCounter(list PostingList) Counter { return Counter{list: list} }

// CountUnder returns how many postings fall inside the subtree at
// root. Successive roots must be non-decreasing in document order.
func (c *Counter) CountUnder(root dewey.ID) int {
	n := len(c.list)
	// First posting >= root, galloping from the cursor.
	lo := c.pos
	if lo < n && c.list[lo].Compare(root) < 0 {
		bound := 1
		for lo+bound < n && c.list[lo+bound].Compare(root) < 0 {
			bound <<= 1
		}
		start := lo + bound>>1
		if bound == 1 {
			start = lo
		}
		end := lo + bound + 1
		if end > n {
			end = n
		}
		lo = start + sort.Search(end-start, func(k int) bool { return c.list[start+k].Compare(root) >= 0 })
	}
	// Keep the cursor at the subtree start, not its end: the next root
	// may be a descendant of this one (results can nest) but never
	// precedes it.
	c.pos = lo
	if len(root) == 0 {
		return n - lo
	}
	// Subtree end, galloping as well: a result entity typically holds
	// few postings, so the end sits near the start and doubling finds
	// it in O(log tf) probes instead of O(log (n-lo)).
	outside := func(p dewey.ID) bool {
		return p.Compare(root) > 0 && !root.IsAncestorOrSelf(p)
	}
	hi := lo
	if hi < n && !outside(c.list[hi]) {
		bound := 1
		for hi+bound < n && !outside(c.list[hi+bound]) {
			bound <<= 1
		}
		start := hi + bound>>1
		if bound == 1 {
			start = hi
		}
		end := hi + bound + 1
		if end > n {
			end = n
		}
		hi = start + sort.Search(end-start, func(k int) bool { return outside(c.list[start+k]) })
	}
	return hi - lo
}
