// Package xseek implements an XSeek-style keyword search engine for
// XML (Liu & Chen, SIGMOD 2007 / VLDB 2008): SLCA-based matching plus
// inference of the result's meaningful return information. It supplies
// XSACT's "Search Engine" and "Entity Identifier" boxes (Figure 3 of
// the demo paper).
//
// The entity identifier reasons over a schema summary inferred from
// the data, in the spirit of the Entity-Relationship model:
//
//   - a node type is a *-node if some parent instance has two or more
//     children of that tag — multiple instances indicate an entity set;
//   - a non-*-node leaf carrying a value denotes an attribute;
//   - remaining nodes are connection nodes (structural glue).
//
// Queries take one execution path: Compile resolves posting lists and
// plans the SLCA seek discipline, then the lazy pipeline (Query.Stream:
// slca iterator → EntityStream → labelling) pulls results in document
// order. Search drains it; a ranked page feeds its entity hits — or a
// cached result list's, through RankPage — into one bounded consumer,
// ConsumeRankedWAND, which keeps the top Offset+Limit in a heap and,
// given block-max bounds, stops scoring once no later hit can enter
// the page. RankResults (score everything, stable sort) is the
// reference ranking every page is checked against.
package xseek
