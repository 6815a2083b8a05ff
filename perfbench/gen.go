package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Input generation. Everything the system under test receives is
// derived from the run's seed: the movie corpus (as XML bytes), the
// query mix, compare selections and write fragments. The system sees
// only the generated XML text and the operations, never the generator.

const (
	pageSize     = 10 // ranked and doc-order page size
	compareBound = 8  // L, features per compared result
	hotQueries   = 48 // popular-hot working set
	// Popularity of the hot rank k is proportional to (zipfV+k)^-zipfS:
	// the hottest query draws about a tenth of the sessions.
	zipfS        = 1.1
	zipfV        = 4
	fragmentPool = 512
)

// movieFields holds the searchable field values of one generated movie,
// the material queries are sampled from.
type movieFields struct {
	genres, keywords, actors    []string
	director, language, country string
	terms                       map[string]bool // every token of the fields above
}

// corpus is one seeded movie corpus: its XML text, the per-movie field
// values, and a pool of extra movies (as XML fragments) for writes.
type corpus struct {
	seed      int64
	xml       []byte
	movies    []movieFields
	fragments []string
}

func makeCorpus(seed int64, movies int) *corpus {
	root := dataset.Movies(dataset.MoviesConfig{Seed: seed, Movies: movies})
	c := &corpus{seed: seed, xml: []byte(xmltree.XMLString(root))}
	for _, m := range root.ChildElements() {
		c.movies = append(c.movies, fieldsOf(m))
	}
	// Write fragments come from a disjoint seed so added movies follow
	// the corpus distribution without duplicating existing ones.
	extra := dataset.Movies(dataset.MoviesConfig{Seed: seed ^ 0x5eed, Movies: fragmentPool})
	for _, m := range extra.ChildElements() {
		c.fragments = append(c.fragments, xmltree.XMLString(m))
	}
	return c
}

func fieldsOf(movie *xmltree.Node) movieFields {
	var f movieFields
	for _, c := range movie.ChildElements() {
		switch c.Tag {
		case "genre":
			f.genres = append(f.genres, c.Value())
		case "keyword":
			f.keywords = append(f.keywords, c.Value())
		case "director":
			f.director = c.Value()
		case "language":
			f.language = c.Value()
		case "country":
			f.country = c.Value()
		case "cast":
			for _, a := range c.ChildElements() {
				f.actors = append(f.actors, a.Value())
			}
		}
	}
	f.terms = make(map[string]bool)
	for _, vals := range [][]string{f.genres, f.keywords, f.actors, {f.director, f.language, f.country}} {
		for _, v := range vals {
			for _, t := range index.Tokenize(v) {
				f.terms[t] = true
			}
		}
	}
	return f
}

// surname is the search term a user would type for a person: the last
// token of an actor's name, the longest token of a director's
// ("A. Kurosawa Jr" → "kurosawa").
func surname(name string, longest bool) string {
	toks := index.Tokenize(name)
	if len(toks) == 0 {
		return name
	}
	if !longest {
		return toks[len(toks)-1]
	}
	best := toks[0]
	for _, t := range toks[1:] {
		if len(t) > len(best) {
			best = t
		}
	}
	return best
}

// query samples 2–3 field values of one random movie, so every query
// matches at least that movie.
func (c *corpus) query(r *rand.Rand) string {
	m := &c.movies[r.Intn(len(c.movies))]
	fields := []string{
		m.genres[r.Intn(len(m.genres))],
		m.keywords[r.Intn(len(m.keywords))],
		m.language,
		m.country,
		surname(m.director, true),
		surname(m.actors[r.Intn(len(m.actors))], false),
	}
	n := 2 + r.Intn(2)
	perm := r.Perm(len(fields))
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fields[perm[i]]
	}
	return strings.Join(parts, " ")
}

// matches counts the movies whose text contains every query term — the
// result count of the query, computed from the generator's own data.
func (c *corpus) matches(q string) int {
	terms := index.TokenizeQuery(q)
	n := 0
	for i := range c.movies {
		all := true
		for _, t := range terms {
			if !c.movies[i].terms[t] {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

type opKind uint8

const (
	opRanked opKind = iota
	opPage
	opCompare
	opAdd
	opRemove
	numKinds
)

func (k opKind) String() string {
	return [...]string{"ranked", "page", "compare", "add", "remove"}[k]
}

// op is one client call. A compare selects selN results of the
// session's last ranked page; which ones follows from selSeed and the
// page length, so a replay resolves the same selection.
type op struct {
	kind    opKind
	query   string
	approx  bool
	selN    int
	selSeed uint64
	frag    string // opAdd: the entity XML
	pick    uint64 // opRemove: chooses the victim among live entities
}

// selection resolves a compare's result indices on a page of n
// results: selN distinct indices in a seeded order, or nil when the
// page is too short to compare.
func (o op) selection(n int) []int {
	k := o.selN
	if k > n {
		k = n
	}
	if k < 2 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s := o.selSeed
	for i := 0; i < k; i++ {
		s = splitmix(s)
		j := i + int(s%uint64(n-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hotQuery is one popular-hot query with its two fixed compare
// selections.
type hotQuery struct {
	query string
	sels  [2]op
}

// hotSet picks the popular-hot working set. Re-scoring a cached result
// list costs in proportion to its length, and the few hottest queries
// set the percentiles, so a working set drawn freely would make the
// numbers a property of the seed. Instead each popularity rank has a
// fixed target result count, from 4 (both fixed selections resolve)
// to 400, and takes the sampled query closest to it; the rank's two
// selections have fixed widths. Seeds then vary the queries, not the
// shape of the load. A corpus too small for hotQueries distinct
// queries of at least 4 results yields fewer.
func (c *corpus) hotSet(r *rand.Rand) []hotQuery {
	type cand struct {
		query string
		n     int
	}
	seen := make(map[string]bool)
	var pool []cand
	for tries := 0; len(pool) < 16*hotQueries && tries < 100*hotQueries; tries++ {
		q := c.query(r)
		if seen[q] {
			continue
		}
		seen[q] = true
		if n := c.matches(q); n >= 4 {
			pool = append(pool, cand{q, n})
		}
	}
	var out []hotQuery
	for rank := 0; rank < hotQueries && len(pool) > 0; rank++ {
		// Targets run geometrically from 4 to 400, dealt to the ranks in
		// a fixed interleaved order so popularity and size are unrelated.
		step := (rank * 29) % hotQueries
		target := 4 * math.Pow(100, float64(step)/float64(hotQueries-1))
		best := 0
		for i, cd := range pool {
			if math.Abs(math.Log(float64(cd.n)/target)) < math.Abs(math.Log(float64(pool[best].n)/target)) {
				best = i
			}
		}
		h := hotQuery{query: pool[best].query}
		pool = append(pool[:best], pool[best+1:]...)
		for i := range h.sels {
			h.sels[i] = op{kind: opCompare, query: h.query, selN: 2 + (rank+i)%3, selSeed: r.Uint64()}
		}
		out = append(out, h)
	}
	return out
}

// stream is one client's deterministic operation sequence: sessions of
// ranked page → doc-order page → compare, shaped per workload.
type stream struct {
	w       *workload
	c       *corpus
	r       *rand.Rand
	hot     []hotQuery
	zipf    *rand.Zipf
	session []op
}

func newStream(w *workload, c *corpus, hot []hotQuery, client int) *stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.name, c.seed, client)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	s := &stream{w: w, c: c, r: r, hot: hot}
	if hot != nil {
		s.zipf = rand.NewZipf(r, zipfS, zipfV, uint64(len(hot)-1))
	}
	return s
}

func (s *stream) next() op {
	if s.w.writeEvery > 0 && s.r.Intn(s.w.writeEvery) == 0 {
		if s.r.Intn(4) < 3 {
			return op{kind: opAdd, frag: s.c.fragments[s.r.Intn(len(s.c.fragments))]}
		}
		return op{kind: opRemove, pick: s.r.Uint64()}
	}
	if len(s.session) == 0 {
		s.session = s.newSession()
	}
	o := s.session[0]
	s.session = s.session[1:]
	return o
}

func (s *stream) newSession() []op {
	if s.hot != nil {
		h := &s.hot[s.zipf.Uint64()]
		return []op{
			{kind: opRanked, query: h.query},
			{kind: opPage, query: h.query},
			h.sels[s.r.Intn(2)],
		}
	}
	q := s.c.query(s.r)
	approx := s.w.approxEvery > 0 && s.r.Intn(s.w.approxEvery) == 0
	return []op{
		{kind: opRanked, query: q, approx: approx},
		{kind: opPage, query: q},
		{kind: opCompare, query: q, selN: 2 + s.r.Intn(3), selSeed: s.r.Uint64()},
	}
}

// take returns the first n ops of the stream.
func (s *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func (o op) String() string {
	switch o.kind {
	case opCompare:
		return fmt.Sprintf("compare(%q, n=%d, seed=%d)", o.query, o.selN, o.selSeed)
	case opAdd:
		return "add"
	case opRemove:
		return fmt.Sprintf("remove(%d)", o.pick)
	}
	return fmt.Sprintf("%s(%q, approx=%v)", o.kind, o.query, o.approx)
}
