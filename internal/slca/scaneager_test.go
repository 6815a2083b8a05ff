package slca

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPropScanEagerMatchesNaive cross-checks Scan Eager (the
// merge-pointer streamer, drained) against the oracle on random
// inputs, the same way the galloping variant is verified.
func TestPropScanEagerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for i := 0; i < 500; i++ {
		k := 1 + r.Intn(3)
		ls := randomLists(r, k)
		scan := Collect(ScanStream(ls))
		naive := Naive(ls)
		if !reflect.DeepEqual(idStrings(scan), idStrings(naive)) {
			t.Fatalf("iteration %d: scan %v != naive %v (lists %v)",
				i, idStrings(scan), idStrings(naive), ls)
		}
	}
}

func TestPropScanEagerMatchesIndexedLookup(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 500; i++ {
		ls := randomLists(r, 1+r.Intn(4))
		a := Collect(ScanStream(ls))
		b := Collect(IndexedLookupStream(ls))
		if !reflect.DeepEqual(idStrings(a), idStrings(b)) {
			t.Fatalf("iteration %d: scan %v != indexed %v", i, idStrings(a), idStrings(b))
		}
	}
}

func TestScanEagerEdgeCases(t *testing.T) {
	if got := Collect(ScanStream(nil)); got != nil {
		t.Fatalf("no lists -> %v", got)
	}
	if got := Collect(ScanStream(lists(ids("0.0"), nil))); got != nil {
		t.Fatalf("empty list -> %v", got)
	}
	got := Collect(ScanStream(lists(ids("0.1", "0.1.2"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.1.2"}) {
		t.Fatalf("single keyword -> %v", idStrings(got))
	}
}

func BenchmarkScanStream(b *testing.B) {
	ls := buildBenchLists(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Collect(ScanStream(ls))
	}
}
