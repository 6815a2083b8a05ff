package main

import (
	"sort"
	"sync"
	"time"
)

// The closed loop: each client issues its next call only after the
// previous one returned, as an xsactd handler or a library caller does.
// Clients never outnumber the CPUs. On live-write a second client, the
// writer, applies the writes of the first one's stream: reads never
// wait on a write, and the stream fixes how many writes, and so how
// many compactions, come per read.

// record is one response kept for the oracle: the op, the length of the
// ranked page a compare resolved its selection on, and the fingerprint.
type record struct {
	o  op
	n  int
	fp uint64
}

// client runs one op stream against a stack.
type client struct {
	s    *stream
	st   *stack
	last rankedResp // the session's latest ranked page

	writer *client // live-write: applies this client's writes

	lat       [numKinds][]time.Duration
	recs      []record
	attempted int
	failed    int
	errs      []string
	dods      float64 // summed DoD of the compares
	compares  int
	measuring bool
}

func (cl *client) fail(o op, err error) {
	cl.failed++
	if len(cl.errs) < 5 {
		cl.errs = append(cl.errs, o.String()+": "+err.Error())
	}
}

func (cl *client) sample(k opKind, d time.Duration) {
	if cl.measuring {
		cl.lat[k] = append(cl.lat[k], d)
	}
}

// do runs one op. A compare whose session page is too short to select
// from is skipped, not attempted.
func (cl *client) do(o op) {
	switch o.kind {
	case opRanked:
		cl.attempted++
		r, err := cl.st.t.ranked(o.query, o.approx)
		cl.last = r
		if err != nil {
			cl.fail(o, err)
			return
		}
		cl.sample(opRanked, r.took)
		cl.recs = append(cl.recs, record{o: o, fp: r.fp(o.approx)})
	case opPage:
		cl.attempted++
		r, err := cl.st.t.page(o.query)
		if err != nil {
			cl.fail(o, err)
			return
		}
		cl.sample(opPage, r.took)
		cl.recs = append(cl.recs, record{o: o, fp: r.fp()})
	case opCompare:
		n := len(cl.last.descs)
		idx := o.selection(n)
		if idx == nil {
			return
		}
		cl.attempted++
		r, err := cl.st.t.compare(cl.last.h, idx)
		if err != nil {
			cl.fail(o, err)
			return
		}
		cl.sample(opCompare, r.took)
		cl.dods += float64(r.dod)
		cl.compares++
		cl.recs = append(cl.recs, record{o: o, n: n, fp: r.fp()})
	case opAdd, opRemove:
		cl.attempted++
		var d time.Duration
		var err error
		if o.kind == opAdd {
			d, err = cl.st.live.add(o.frag)
		} else {
			d, err = cl.st.live.remove(o.pick)
		}
		if err != nil {
			cl.fail(o, err)
			return
		}
		cl.sample(o.kind, d)
	}
}

// writeQueue bounds the writes a reader may run ahead of its writer.
const writeQueue = 1024

// runPhase runs every client that has a stream until the deadline, each
// reader feeding its writer, and returns when all have finished their
// last call. Writes still queued at the deadline are dropped unapplied.
func runPhase(clients []*client, d time.Duration, measuring bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range clients {
		cl.measuring = measuring
	}
	for _, cl := range clients {
		if cl.s == nil {
			continue // a writer, fed by its reader
		}
		var writes chan op
		if cl.writer != nil {
			writes = make(chan op, writeQueue)
			wg.Add(1)
			go func(wr *client) {
				defer wg.Done()
				for o := range writes {
					if time.Now().Before(deadline) {
						wr.do(o)
					}
				}
			}(cl.writer)
		}
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			if writes != nil {
				defer close(writes)
			}
			for time.Now().Before(deadline) {
				o := cl.s.next()
				if writes != nil && (o.kind == opAdd || o.kind == opRemove) {
					writes <- o
					continue
				}
				cl.do(o)
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(start)
}

// latencies gathers the clients' samples of the given kinds.
func latencies(clients []*client, kinds ...opKind) []time.Duration {
	var out []time.Duration
	for _, cl := range clients {
		for _, k := range kinds {
			out = append(out, cl.lat[k]...)
		}
	}
	return out
}

// percentileMS is the nearest-rank q-quantile of all the samples, in ms.
func percentileMS(samples []time.Duration, q float64) float64 {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantileMS(sorted, q)
}

// quantileMS is the nearest-rank q-quantile of sorted durations, in ms.
func quantileMS(sorted []time.Duration, q float64) float64 {
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
	return float64(sorted[rank-1].Nanoseconds()) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
