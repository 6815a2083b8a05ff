package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// readyServer is a one-leg shard server over a small corpus with its
// ranking constants installed, as a coordinator's Dial leaves it.
func readyServer(t *testing.T) *Server {
	t.Helper()
	sv, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.MustParseString(`<lib><book><t>alpha beta</t></book><book><t>alpha</t><n>alpha</n></book><book><t>beta</t></book></lib>`)
	if err := sv.AddCorpus("c", root); err != nil {
		t.Fatal(err)
	}
	rec := serve(t, sv, http.MethodGet, "/shard/v1/stats?corpus=c", "")
	var st StatsResponse
	if err := DecodeFrame(rec.Body, &st); err != nil {
		t.Fatal(err)
	}
	rk, _ := json.Marshal(&Ranking{TotalNodes: root.CountNodes(), DF: st.DF})
	if rec := serve(t, sv, http.MethodPost, "/shard/v1/ranking?corpus=c", string(rk)); rec.Code != http.StatusOK {
		t.Fatalf("install ranking: %d %s", rec.Code, rec.Body)
	}
	return sv
}

func serve(t *testing.T, sv *Server, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec
}

// TestServerOversizeBody: every JSON body a shard server decodes is
// bounded; one byte past the bound is refused with 413 before it is
// buffered, and the server keeps serving.
func TestServerOversizeBody(t *testing.T) {
	sv := readyServer(t)
	huge := `{"query":"` + strings.Repeat("a", maxRequestBody) + `"}`
	for _, path := range []string{"ranking", "query", "write", "compact"} {
		rec := serve(t, sv, http.MethodPost, "/shard/v1/"+path+"?corpus=c", huge)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversize body got %d, want 413", path, rec.Code)
		}
	}
	if rec := serve(t, sv, http.MethodPost, "/shard/v1/query?corpus=c", "{"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body got %d, want 400", rec.Code)
	}
	if rec := serve(t, sv, http.MethodGet, "/shard/v1/info?corpus=c", ""); rec.Code != http.StatusOK {
		t.Fatalf("info after refused bodies: %d", rec.Code)
	}
}

// TestServerAcceptsWANDField: a ranked leg query from a coordinator of
// an earlier version carries "wand" (absent or false selected an
// unpruned consumer there). Legs always run the bounded consumer, so
// every spelling decodes and serves the identical exact page.
func TestServerAcceptsWANDField(t *testing.T) {
	sv := readyServer(t)
	var pages []string
	for _, wand := range []string{``, `"wand":false,`, `"wand":true,`} {
		body := `{"epoch":0,"kind":"ranked","query":"alpha","terms":["alpha"],"limit":2,` + wand + `"approx":false}`
		rec := serve(t, sv, http.MethodPost, "/shard/v1/query?corpus=c", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("wand spelling %q: %d %s", wand, rec.Code, rec.Body)
		}
		var env Envelope
		if err := DecodeFrame(bytes.NewReader(rec.Body.Bytes()), &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Hits) != 2 || env.Total != 2 {
			t.Fatalf("wand spelling %q: %d hits of %d, want 2 of 2", wand, len(env.Hits), env.Total)
		}
		hits, _ := json.Marshal(env.Hits)
		pages = append(pages, string(hits))
	}
	if pages[0] != pages[1] || pages[0] != pages[2] {
		t.Fatalf("pages differ by wand spelling: %v", pages)
	}
}
