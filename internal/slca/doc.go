// Package slca computes Smallest Lowest Common Ancestors (SLCAs) of
// XML keyword queries — the match semantics used by XSeek and hence by
// XSACT's search-engine substrate.
//
// Given posting lists S1..Sk (one per keyword), a node v is an LCA
// candidate if its subtree contains at least one node from every list;
// v is an SLCA if additionally no proper descendant of v is also a
// candidate. Results are returned in document order.
//
// There is one execution path: a pull-based Iterator that drives the
// smallest list through cursors over the others and emits each SLCA
// as soon as it is final — the Indexed Lookup Eager and Scan Eager
// algorithms of Xu & Papakonstantinou (SIGMOD 2005). The two differ
// only in how the non-driving cursors seek: galloping probes
// (IndexedLookupStream) or linear merge pointers (ScanStream). Which
// wins depends on posting-list skew, so Stream asks a cost-based
// planner (Plan) to pick from the lists' shape statistics. A consumer
// wanting the whole SLCA set drains the iterator with Collect. Naive,
// a simple quadratic scan, is the correctness oracle the tests check
// both disciplines against.
package slca
