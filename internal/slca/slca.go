package slca

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
)

// Algorithm names one SLCA evaluation strategy.
type Algorithm string

const (
	// AlgAuto lets the cost planner choose the seek discipline.
	AlgAuto Algorithm = "auto"
	// AlgIndexedLookup is Xu & Papakonstantinou's Indexed Lookup Eager:
	// walk the smallest list, probe the others with galloping seeks.
	// Wins when the driving list is much shorter than the rest
	// (|S1|·k·log|S| ≪ Σ|Si|). "Eager" is the paper's term for emitting
	// each SLCA as soon as it is final, which is what the streamer does.
	AlgIndexedLookup Algorithm = "indexed-lookup-eager"
	// AlgScanEager is Scan Eager: walk the smallest list, advance
	// linear merge pointers through the others. Wins when list sizes
	// are uniform — one linear pass beats |S1|·log|S| random probes.
	AlgScanEager Algorithm = "scan-eager"
	// AlgNaive is the quadratic correctness oracle.
	AlgNaive Algorithm = "naive"
)

// DefaultSkewThreshold is the Max/Min list-length ratio above which the
// planner prefers galloping seeks (AlgIndexedLookup) over linear merge
// pointers (AlgScanEager). Calibrated with BenchmarkPlanner (see
// BENCH_PLANNER.json): at skew 1 the merge is ~30% faster than binary
// probing and stays ahead through skew 32, the two cross at skew ≈ 48,
// and by skew 256 indexed lookup wins ~4.5x.
const DefaultSkewThreshold = 48.0

// Plan picks the cheaper seek discipline from posting-list shape
// statistics: indexed lookup when a rare term makes the driving list
// much shorter than the longest list, scan otherwise. It is a pure
// function so callers can record or override the decision.
func Plan(stats index.PlanStats) Algorithm {
	if stats.Skew >= DefaultSkewThreshold {
		return AlgIndexedLookup
	}
	return AlgScanEager
}

// Naive computes SLCAs by materializing, for every node in the first
// list, the LCA closure against all other lists, then removing
// non-smallest results. It is O(n²) in the worst case and exists as a
// correctness oracle for tests.
func Naive(lists []index.PostingList) []dewey.ID {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	if len(lists) == 1 {
		// SLCA of a single keyword list: the nodes themselves, minus
		// ancestors of other matches.
		return removeAncestors(dedupe(cloneIDs(lists[0])))
	}
	// For every element of the first list, compute the smallest LCA it
	// can form with one element from each other list.
	var candidates []dewey.ID
	for _, a := range lists[0] {
		cur := a.Clone()
		for _, other := range lists[1:] {
			best := bestLCAWith(cur, other)
			cur = best
		}
		candidates = append(candidates, cur)
	}
	return removeAncestors(dedupe(candidates))
}

// bestLCAWith returns the deepest LCA formable between id and any
// element of list.
func bestLCAWith(id dewey.ID, list index.PostingList) dewey.ID {
	best := dewey.Root()
	for _, b := range list {
		l := id.LCA(b)
		if l.Level() > best.Level() {
			best = l
		}
	}
	return best
}

// removeAncestors removes every ID that is a proper ancestor of
// another ID in the list, leaving only "smallest" (deepest) nodes.
// Input must be sorted in document order and duplicate-free. In
// document order a node's descendants immediately follow it, so a node
// has a descendant in the list iff the next element is one — a single
// pass over adjacent pairs suffices.
func removeAncestors(sorted []dewey.ID) []dewey.ID {
	var out []dewey.ID
	for i, id := range sorted {
		if i+1 < len(sorted) && id.IsAncestorOf(sorted[i+1]) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func dedupe(ids []dewey.ID) []dewey.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || !ids[i-1].Equal(id) {
			out = append(out, id)
		}
	}
	return out
}

func cloneIDs(ids index.PostingList) []dewey.ID {
	out := make([]dewey.ID, len(ids))
	for i, id := range ids {
		out[i] = id.Clone()
	}
	return out
}

// ELCA computes Exclusive LCAs: nodes v such that v's subtree contains
// every keyword even after removing the subtrees of v's descendant
// SLCAs. ELCA is a superset of SLCA and is provided for completeness
// of the XSeek substrate (some XSeek variants return ELCAs).
func ELCA(lists []index.PostingList) []dewey.ID {
	slcas := Collect(Stream(lists))
	if len(slcas) == 0 {
		return nil
	}
	// A node is an ELCA iff, excluding matches under its descendant
	// SLCAs, it still covers all keywords. Check every ancestor of
	// every SLCA (small sets in practice).
	seen := make(map[string]bool)
	var out []dewey.ID
	consider := func(v dewey.ID) {
		key := v.String()
		if seen[key] {
			return
		}
		seen[key] = true
		if isELCA(v, lists, slcas) {
			out = append(out, v)
		}
	}
	for _, s := range slcas {
		consider(s)
		cur := s
		for {
			p, ok := cur.Parent()
			if !ok {
				break
			}
			consider(p)
			cur = p
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// isELCA reports whether v contains a witness of every keyword that is
// not under a proper-descendant candidate of v. A node is a candidate
// iff it contains all keywords, which holds exactly for the
// ancestors-or-selves of SLCAs; since candidacy is upward closed, a
// match m under v is excluded iff the child of v on the path to m is
// itself a candidate (i.e. is an ancestor-or-self of some SLCA).
func isELCA(v dewey.ID, lists []index.PostingList, slcas []dewey.ID) bool {
	for _, list := range lists {
		found := false
		for _, m := range list {
			if !v.IsAncestorOrSelf(m) {
				continue
			}
			if m.Equal(v) {
				found = true // witness at v itself is never excluded
				break
			}
			child := m[:v.Level()+1]
			excluded := false
			for _, s := range slcas {
				if child.IsAncestorOrSelf(s) {
					excluded = true
					break
				}
			}
			if !excluded {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
