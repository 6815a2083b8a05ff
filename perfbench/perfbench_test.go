package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallConfig is a run on a tiny corpus, short enough for go test.
func smallConfig(t *testing.T, w string, trace bool) config {
	seconds := 1.0
	if w == "live-write" {
		seconds = 3 // time for several compactions, even under -race
	}
	return config{
		workload: w, seed: 3, seconds: seconds, trace: trace, movies: 1000,
		setups: 1, minSamples: 10, out: t.TempDir(),
	}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
	Workloads []struct{ Name string } `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runSmall runs a configuration and returns the exit code and the
// parsed result line.
func runSmall(t *testing.T, cfg config) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	w := workloadNamed(cfg.workload)
	cfg.clients = w.clients
	code := runConfig(cfg, w, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstderr:\n%s", cfg.workload, err, errOut.String())
	}
	if code != 0 {
		t.Logf("stderr:\n%s", errOut.String())
	}
	return code, res
}

func names(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedNames(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, on a tiny corpus:
// each must pass its oracle and self-checks and print exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := workloadNames()
	sort.Strings(want)
	if got := sortedNames(bf.Workloads); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, res := runSmall(t, smallConfig(t, w.name, trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w.name, trace, code, res)
			}
			want := sortedNames(bf.EndToEnd)
			if trace {
				want = sortedNames(bf.PerLayer)
			}
			if got := names(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestCorruptFingerprintFails shows the oracle catches a wrong response
// and a lost write.
func TestCorruptFingerprintFails(t *testing.T) {
	for _, w := range []string{"explore-cold", "live-write"} {
		cfg := smallConfig(t, w, false)
		cfg.corrupt = true
		code, res := runSmall(t, cfg)
		if code != 1 || res.Correct {
			t.Errorf("%s with a corrupted fingerprint: exit %d, correct %v; want exit 1, incorrect", w, code, res.Correct)
		}
	}
}

// TestGeneratorDeterministic: the same seed gives the same corpus and op
// streams; another seed gives others.
func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) (string, []op) {
			c := makeCorpus(seed, 200)
			var hot []hotQuery
			if w.hot {
				hot = c.hotSet(newStream(w, c, nil, 9).r)
			}
			ops := newStream(w, c, hot, 0).take(300)
			return string(c.xml) + strings.Join(c.fragments, ""), ops
		}
		xa, oa := gen(5)
		xb, ob := gen(5)
		if xa != xb || !reflect.DeepEqual(oa, ob) {
			t.Errorf("%s: seed 5 generated different inputs twice", w.name)
		}
		xc, oc := gen(6)
		if xa == xc || reflect.DeepEqual(oa, oc) {
			t.Errorf("%s: seeds 5 and 6 generated the same inputs", w.name)
		}
	}
}

func TestSelectionDistinct(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		o := op{selN: 2 + int(seed%3), selSeed: seed}
		for n := 0; n <= pageSize; n++ {
			idx := o.selection(n)
			if n < 2 {
				if idx != nil {
					t.Fatalf("selection on %d results: %v", n, idx)
				}
				continue
			}
			seen := make(map[int]bool)
			for _, i := range idx {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("selection %v on %d results", idx, n)
				}
				seen[i] = true
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Millisecond
		if i%50 == 49 {
			d = 10 * time.Millisecond
		}
		s = append(s, d)
	}
	if got := percentileMS(s, 0.5); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := percentileMS(s, 0.99); got != 10 {
		t.Errorf("p99 = %v ms, want 10", got)
	}
	// A stall over a tenth of the run shows in p99, wherever it falls.
	for i := 0; i < 500; i++ {
		s[i] = time.Second
	}
	if got := percentileMS(s, 0.99); got != 1000 {
		t.Errorf("p99 with a stall = %v ms, want 1000", got)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {9, 20}}
	if got := covered(iv, 1, 12); got != 3+3+3 {
		t.Errorf("covered = %d, want 9", got)
	}
}
