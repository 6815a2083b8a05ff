package engine_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/xmltree"
)

// TestRankedRoutesAgreeCoordinator is TestRankedRoutesAgree's
// coordinator case: the serving engine over an HTTP coordinator of two
// shard legs. It lives in an external test package because dist
// imports engine.
func TestRankedRoutesAgreeCoordinator(t *testing.T) {
	doc := engine.RouteCorpusXML(40)
	var endpoints []string
	for g := 0; g < 2; g++ {
		sv, err := dist.NewServer(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AddCorpus("c", xmltree.MustParseString(doc)); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(sv)
		t.Cleanup(hs.Close)
		endpoints = append(endpoints, hs.URL)
	}
	for _, opts := range engine.RouteOptions {
		co, err := dist.Dial(endpoints, "c", xmltree.MustParseString(doc), dist.Config{})
		if err != nil {
			t.Fatal(err)
		}
		engine.RankedRoutesAgree(t, engine.FromDist(co, engine.Config{}), "gps unit", opts)
	}
}
