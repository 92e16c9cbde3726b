package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"exaresil/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: input order must not matter
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99}, {0.1, 1, 99}} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g = %g (%d beyond), want %g (%d beyond)", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty input = %g, %d; want 0, 0", v, beyond)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// n = 1000: rank ceil(990) = 990, ten samples beyond.
	if v, ok := tail(mk(1000), 99); v != 990 || !ok {
		t.Errorf("n=1000: p99 = %g ok=%v, want 990 true", v, ok)
	}
	// n = 999: rank ceil(989.01) = 990, nine beyond.
	if v, ok := tail(mk(999), 99); v != 990 || ok {
		t.Errorf("n=999: p99 = %g ok=%v, want 990 false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	parent := span{ID: 1, Start: ms(0), End: ms(100)}
	children := []span{
		{Parent: 1, Start: ms(30), End: ms(60)}, // overlaps the next child
		{Parent: 1, Start: ms(10), End: ms(40)},
		{Parent: 1, Start: ms(15), End: ms(20)},  // nested in the one above
		{Parent: 1, Start: ms(90), End: ms(120)}, // runs past the parent
		{Parent: 1, Start: ms(-5), End: ms(0)},   // ends where the parent starts
	}
	// Covered: [10,60] and [90,100] = 60 ms, so 40 ms of self time.
	if got := selfTime(parent, children); got != ms(40) {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Errorf("childless self time = %v, want 100ms", got)
	}

	rec := newRecorder()
	rec.spans = append([]span{parent, {ID: 9, Name: "other", Start: ms(0), End: ms(7)}}, children...)
	rec.spans[0].Name = "p"
	if got := rec.selfSeconds("p"); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("selfSeconds = %g, want 0.040", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	id, start := r.begin()
	r.end(id, 0, 0, "x", start)
	if id != 0 || start != 0 {
		t.Errorf("nil recorder begin = %d, %v", id, start)
	}
}

func TestArrivalSchedulesRepeatForEqualSeeds(t *testing.T) {
	a, err := arrivals(7, 1, rateHi, 3, serveVocab())
	if err != nil {
		t.Fatal(err)
	}
	b, err := arrivals(7, 1, rateHi, 3, serveVocab())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	c, err := arrivals(8, 1, rateHi, 3, serveVocab())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	d, err := arrivals(7, 2, rateHi, 3, serveVocab())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, d) {
		t.Error("the lo and hi substreams gave the same schedule")
	}
}

func TestVocabPinsGoldenSpecs(t *testing.T) {
	v := serveVocab()
	if len(v) != vocabSize || vocabSize != 32*serveCache {
		t.Fatalf("vocabulary has %d specs, want %d = 32 x cache", len(v), 32*serveCache)
	}
	if v[0] != (serve.Spec{Exhibit: "fig1", Trials: 20}) || v[1] != (serve.Spec{Exhibit: "fig4", Patterns: 6}) {
		t.Errorf("pinned ranks are %+v, %+v", v[0], v[1])
	}
	seen := map[serve.Spec]bool{}
	for _, s := range v {
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if seen[s] {
			t.Fatalf("duplicate spec %+v", s)
		}
		seen[s] = true
	}
}

func TestWarmupAndZipfBatches(t *testing.T) {
	v := serveVocab()
	warm := warmup(5, v)
	seen := map[serve.Spec]bool{}
	for _, s := range warm {
		seen[s] = true
	}
	if len(warm) != serveCache || len(seen) != serveCache {
		t.Fatalf("warm-up holds %d specs (%d distinct), want the top %d once each", len(warm), len(seen), serveCache)
	}
	for _, s := range v[:serveCache] {
		if !seen[s] {
			t.Fatalf("warm-up lacks top spec %+v", s)
		}
	}
	if reflect.DeepEqual(warm, warmup(6, v)) || !reflect.DeepEqual(warm, warmup(5, v)) {
		t.Error("the warm-up order must follow the seed, and only the seed")
	}

	a, err := zipfBatch(5, 0, 1000, v)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := zipfBatch(5, 0, 1000, v)
	next, _ := zipfBatch(5, 1, 1000, v)
	other, _ := zipfBatch(6, 0, 1000, v)
	if len(a) != 1000 || len(next) != 1000 {
		t.Fatalf("batches of %d and %d specs, want 1000", len(a), len(next))
	}
	if !reflect.DeepEqual(a, again) || reflect.DeepEqual(a, next) || reflect.DeepEqual(a, other) {
		t.Error("a batch must follow the seed and its index, and only them")
	}
	// Zipf(1.1) over 4096 ranks puts about 70% of the draws in the top
	// 128, so a batch mixes hits with misses.
	top := 0
	for _, s := range a {
		if seen[s] {
			top++
		}
	}
	if top < 600 || top > 800 {
		t.Errorf("%d of 1000 draws in the top %d ranks, want about 700", top, serveCache)
	}
}

func TestRefusedRequestsAreInfinitelyLate(t *testing.T) {
	ok := outcome{disp: serve.CacheHit, due: 0, done: 5 * time.Millisecond}
	out := []outcome{ok, ok, {disp: "rejected", done: time.Millisecond}, {disp: "wrong", done: time.Millisecond}}
	for _, o := range out[2:] {
		if !math.IsInf(o.latencyMS(), 1) {
			t.Errorf("%s request latency = %g, want +Inf", o.disp, o.latencyMS())
		}
	}
	st := summarize(out, 1)
	if st.good != 2 || st.failed != 2 || st.rejected != 1 || st.wrong != 1 {
		t.Errorf("summary %+v: want 2 good, 2 failed (1 rejected, 1 wrong)", st)
	}
	if p99, _ := percentile(st.lat, 99); !math.IsInf(p99, 1) {
		t.Errorf("p99 with refused requests = %g, want +Inf", p99)
	}
	got := report(&strings.Builder{}, []metricDef{{"lat", "ms"}}, map[string]float64{"lat": math.Inf(1)})
	if got["lat"].Value != infLatencyMS {
		t.Errorf("reported infinite latency as %g, want %g", got["lat"].Value, infLatencyMS)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm([]byte("# HELP x y\n# TYPE x counter\n" +
		"exaresil_serve_cache_requests_total{outcome=\"miss\"} 12\n" +
		"exaresil_serve_http_request_seconds_sum{route=\"submit\"} 0.25\n\n"))
	if p[`exaresil_serve_cache_requests_total{outcome="miss"}`] != 12 ||
		p[`exaresil_serve_http_request_seconds_sum{route="submit"}`] != 0.25 || len(p) != 2 {
		t.Errorf("parsed %v", p)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, harness reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, harness reports %v", layers, perLayer)
	}
	names := map[string]bool{}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names[w.Name] = true
		if w.Name == "serve_zipf" {
			for _, want := range []string{
				"lo=60 ", "hi=120 ", "poll 2 ms", "limit 250 ms",
			} {
				if !strings.Contains(w.Why, want) {
					t.Errorf("serve_zipf why %q does not record %q", w.Why, want)
				}
			}
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness runs %d", len(names), len(workloads))
	}
	if rateLo != 60 || rateHi != 120 || pollInterval != 2*time.Millisecond || latencyLimit != 250*time.Millisecond {
		t.Error("serve_zipf constants changed: update BENCHMARK.json's serve_zipf line and this test")
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := newRecorder()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				id, start := rec.begin()
				rec.end(id, 0, 0, "x", start)
			}
		}()
	}
	wg.Wait()
	ids := map[int64]bool{}
	for _, s := range rec.named("x") {
		if ids[s.ID] || s.End < s.Start {
			t.Fatalf("span %+v repeats an id or ends before it starts", s)
		}
		ids[s.ID] = true
	}
	if len(ids) != 400 {
		t.Errorf("recorded %d spans, want 400", len(ids))
	}
}
