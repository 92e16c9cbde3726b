package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exaresil/internal/load"
	"exaresil/internal/rng"
	"exaresil/internal/serve"
)

// The serve_zipf deployment and traffic. BENCHMARK.json's workload line
// repeats the rates, the poll interval and the latency limit; a test keeps
// them equal.
const (
	vocabSize    = 4096  // ranked specs, 32x the result cache
	zipfS        = 1.1   // popularity exponent
	serveWorkers = 1     // pool width: server plus generator fit in 2 CPUs
	serveCache   = 128   // exaserve's default result cache
	serveQueue   = 1024  // queued-flight slots: a host stall queues, not refuses
	serveStore   = 8192  // retained jobs: results stay fetchable through a backlog
	rateLo       = 60.0  // req/s offered in the lo step: ~40% of the knee
	rateHi       = 120.0 // ~80% of the knee (150 req/s on a 2-vCPU Xeon)
	pollInterval = 2 * time.Millisecond
	latencyLimit = 250 * time.Millisecond // goodput counts results within it
	// An untraced run times zipfBatches closed-loop batches of Zipf-drawn
	// requests from batchUsers users; each batch holds batchPerSecond
	// requests per --seconds, sized so that the batches take about 0.85 of
	// --seconds on a 2-vCPU Xeon.
	zipfBatches    = 6
	batchUsers     = 1
	batchPerSecond = 27
	// loShare and hiShare size the traced run's two open-loop steps as
	// shares of --seconds; the warm-up and a traced copy of lo come on top.
	loShare, hiShare = 0.6, 0.3
	startsPerGap     = 3 // server starts timed for setup_s before and after each batch
	maxGenLag        = 20 * time.Millisecond
	requestTimeout   = 30 * time.Second
)

// serveFlags are exaserve's recorded deployment flags.
func serveFlags(addr string) []string {
	return []string{"-addr", addr, "-workers", strconv.Itoa(serveWorkers),
		"-queue", strconv.Itoa(serveQueue), "-store", strconv.Itoa(serveStore),
		"-cache", strconv.Itoa(serveCache), "-sim-workers", "1"}
}

// serveVocab is the ranked spec vocabulary, the same for every seed (the
// seed drives the traffic over it). Ranks 0 and 1 are the golden-pinned
// fig1 and fig4 specs; below them seven in eight ranks are cheap fig1
// trial specs and one in eight a reduced fig4 cluster spec, so misses
// execute both the appsim and the cluster paths.
func serveVocab() []serve.Spec {
	v := make([]serve.Spec, vocabSize)
	v[0] = serve.Spec{Exhibit: "fig1", Trials: 20}
	v[1] = serve.Spec{Exhibit: "fig4", Patterns: 6}
	for r := 2; r < vocabSize; r++ {
		if r%8 == 0 {
			v[r] = serve.Spec{Exhibit: "fig4", Patterns: 1, Arrivals: 20, Seed: uint64(r)}
		} else {
			v[r] = serve.Spec{Exhibit: "fig1", Trials: 2, Seed: uint64(r)}
		}
	}
	return v
}

// warmup is the untimed first batch: the cache's worth of top ranks,
// each once in a seeded order, so the cache starts out holding them.
func warmup(seed uint64, v []serve.Spec) []serve.Spec {
	top := append([]serve.Spec(nil), v[:serveCache]...)
	r := rand.New(rand.NewPCG(seed, 3))
	r.Shuffle(len(top), func(i, j int) { top[i], top[j] = top[j], top[i] })
	return top
}

// zipfBatch is the k-th timed batch: n specs drawn Zipf(zipfS) over v by
// load.Generate from substream 10+k of seed. The draws are paced one a
// second only so that Generate yields exactly n of them; the batch is
// sent closed-loop.
func zipfBatch(seed uint64, k, n int, v []serve.Spec) ([]serve.Spec, error) {
	arr, err := load.Generate(load.GenSpec{
		Seed:    rng.CellSeed(seed, uint64(10+k)),
		Profile: load.Profile{Segments: []load.Segment{{Kind: load.KindConstant, Rate: 1, Dur: float64(n) + 0.5}}},
		Process: load.ProcessUniform,
		Vocab:   v,
		ZipfS:   zipfS,
	})
	if err != nil {
		return nil, err
	}
	specs := make([]serve.Spec, len(arr))
	for i, a := range arr {
		specs[i] = a.Spec
	}
	return specs, nil
}

// batchSize is the number of requests in each timed batch of a run of
// the given --seconds.
func batchSize(seconds int) int { return max(batchPerSecond*seconds, 1) }

// goldenPins maps the pinned specs to their digests in
// results/golden/manifest.txt.
func goldenPins(v []serve.Spec) (map[serve.Spec]string, error) {
	b, err := os.ReadFile(filepath.Join("results", "golden", "manifest.txt"))
	if err != nil {
		return nil, err
	}
	byName := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			byName[f[1]] = f[0]
		}
	}
	pins := map[serve.Spec]string{v[0]: byName["fig1"], v[1]: byName["fig4"]}
	for s, d := range pins {
		if d == "" {
			return nil, fmt.Errorf("golden manifest has no digest for %s", s.Exhibit)
		}
	}
	return pins, nil
}

// arrivals is one step's open-loop Poisson schedule: rate req/s for dur
// seconds, popularity Zipf(zipfS) over v, from substream stream of seed.
func arrivals(seed, stream uint64, rate, dur float64, v []serve.Spec) ([]load.Arrival, error) {
	return load.Generate(load.GenSpec{
		Seed:    rng.CellSeed(seed, stream),
		Profile: load.Profile{Segments: []load.Segment{{Kind: load.KindConstant, Rate: rate, Dur: dur}}},
		Process: load.ProcessPoisson,
		Vocab:   v,
		ZipfS:   zipfS,
	})
}

// server is one running exaserve process.
type server struct {
	cmd      *exec.Cmd
	base     string
	setup    time.Duration // exec to first /healthz 200
	done     chan error
	stopOnce sync.Once
}

// startServer execs exaserve on a free local port and waits for its
// first healthy /healthz.
func startServer(bin string, logw io.Writer) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, done: make(chan error, 1)}
	s.cmd = exec.Command(bin, serveFlags(addr)...)
	s.cmd.Stdout, s.cmd.Stderr = logw, logw
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	hc := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	for time.Since(t0) < 10*time.Second {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("exaserve exited before becoming healthy: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
	}
	s.stop()
	return nil, errors.New("exaserve not healthy after 10s")
}

// stop drains the server with SIGTERM, killing it after 15 s, and waits
// for it to exit. Later calls return at once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// timeStarts starts and stops n servers in turn and returns each one's
// set-up time in seconds.
func timeStarts(n int, bin string, logw io.Writer) ([]float64, error) {
	var out []float64
	for range n {
		s, err := startServer(bin, logw)
		if err != nil {
			return nil, err
		}
		out = append(out, s.setup.Seconds())
		s.stop()
	}
	return out, nil
}

// outcome is one request's fate. Times are offsets from the step start.
type outcome struct {
	due, issued, done time.Duration
	// disp is the cache disposition (hit, joined, miss) of a request that
	// delivered a correct result, else rejected, failed, error or wrong.
	disp      string
	polls     int
	queueWait float64 // ms, misses only; NaN otherwise
	exec      float64 // ms, misses only; NaN otherwise
}

func (o outcome) ok() bool {
	return o.disp == serve.CacheHit || o.disp == serve.CacheJoined || o.disp == serve.CacheMiss
}

// latencyMS is due to result bytes in hand; a request that did not
// deliver a correct result is infinitely late.
func (o outcome) latencyMS() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return float64(o.done-o.due) / float64(time.Millisecond)
}

// client drives one exaserve over at most NumCPU connections. rec, when
// set, records a span per request and per HTTP call.
type client struct {
	base  string
	hc    *http.Client
	rec   *recorder
	pins  map[serve.Spec]string
	reqID atomic.Int64
}

func newClient(base string, pins map[serve.Spec]string) *client {
	n := runtime.NumCPU()
	return &client{
		base: base,
		pins: pins,
		hc: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		}},
	}
}

// call makes one HTTP exchange inside an "http.<route>" span and returns
// the status and body.
func (c *client) call(route, method, path string, body []byte, parent, req int64) (int, []byte, error) {
	id, t0 := c.rec.begin()
	defer func() { c.rec.end(id, parent, req, "http."+route, t0) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do submits spec, polls a queued job until it ends, fetches the result
// and checks its bytes against the job's digest (and a pinned spec's
// digest against the golden manifest).
func (c *client) do(spec serve.Spec) outcome {
	req := c.reqID.Add(1)
	id, t0 := c.rec.begin()
	defer func() { c.rec.end(id, 0, req, "serve.request", t0) }()
	o := outcome{queueWait: math.NaN(), exec: math.NaN()}
	body, _ := json.Marshal(spec) // a Spec always encodes
	code, b, err := c.call("submit", http.MethodPost, "/v1/jobs", body, id, req)
	switch {
	case err != nil:
		o.disp = "error"
		return o
	case code == http.StatusTooManyRequests:
		o.disp = "rejected"
		return o
	case code != http.StatusOK && code != http.StatusAccepted:
		o.disp = "error"
		return o
	}
	var view serve.JobView
	if json.Unmarshal(b, &view) != nil {
		o.disp = "error"
		return o
	}
	disp := view.Cache
	deadline := time.Now().Add(requestTimeout)
	for view.State == "queued" || view.State == "running" {
		if time.Now().After(deadline) {
			o.disp = "failed"
			return o
		}
		time.Sleep(pollInterval)
		o.polls++
		code, b, err = c.call("poll", http.MethodGet, "/v1/jobs/"+view.ID, nil, id, req)
		if err != nil || code != http.StatusOK || json.Unmarshal(b, &view) != nil {
			o.disp = "error"
			return o
		}
	}
	if view.State != "done" {
		o.disp = "failed"
		return o
	}
	code, b, err = c.call("result", http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil, id, req)
	if err != nil || code != http.StatusOK {
		o.disp = "error"
		return o
	}
	sumb := sha256.Sum256(b)
	if got := hex.EncodeToString(sumb[:]); got != view.Digest || (c.pins[spec] != "" && got != c.pins[spec]) {
		o.disp = "wrong"
		return o
	}
	o.disp = disp
	if disp == serve.CacheMiss && view.StartedAt != nil && view.FinishedAt != nil {
		o.queueWait = float64(view.StartedAt.Sub(view.SubmittedAt)) / float64(time.Millisecond)
		o.exec = float64(view.FinishedAt.Sub(*view.StartedAt)) / float64(time.Millisecond)
	}
	return o
}

// closedLoop sends specs from the given number of users, each sending its
// next request when its previous one has finished.
func (c *client) closedLoop(specs []serve.Spec, users int) []outcome {
	out := make([]outcome, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				due := time.Since(start)
				out[i] = c.do(specs[i])
				out[i].due, out[i].issued, out[i].done = due, due, time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop issues each arrival at its due time, whether or not earlier
// requests have finished, and waits for all of them.
func (c *client) openLoop(arr []load.Arrival) []outcome {
	out := make([]outcome, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := time.Duration(a.At * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		issued := time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := c.do(a.Spec)
			o.due, o.issued, o.done = due, issued, time.Since(start)
			out[i] = o
		}()
	}
	wg.Wait()
	return out
}

// stepStats summarizes one step's outcomes.
type stepStats struct {
	sent, good                   int
	hits, joined, misses, failed int
	rejected, wrong, polls       int
	lat, hitLat, missLat, lag    []float64 // ms
	queueWait, exec              []float64 // ms, misses
	durS                         float64
}

func summarize(out []outcome, durS float64) stepStats {
	s := stepStats{sent: len(out), durS: durS}
	for _, o := range out {
		l := o.latencyMS()
		s.lat = append(s.lat, l)
		s.lag = append(s.lag, float64(o.issued-o.due)/float64(time.Millisecond))
		if l <= float64(latencyLimit/time.Millisecond) {
			s.good++
		}
		switch o.disp {
		case serve.CacheHit:
			s.hits++
			s.hitLat = append(s.hitLat, l)
		case serve.CacheJoined, serve.CacheMiss:
			s.missLat = append(s.missLat, l)
			if o.disp == serve.CacheJoined {
				s.joined++
				continue
			}
			s.misses++
			s.polls += o.polls
			if !math.IsNaN(o.exec) {
				s.queueWait = append(s.queueWait, o.queueWait)
				s.exec = append(s.exec, o.exec)
			}
		case "rejected":
			s.rejected++
			s.failed++
		case "wrong":
			s.wrong++
			s.failed++
		default:
			s.failed++
		}
	}
	return s
}

// promText is a scrape of GET /metrics: series key (name plus its label
// block, as printed) to value.
type promText map[string]float64

func (c *client) scrape() (promText, error) {
	code, b, err := c.call("metrics", http.MethodGet, "/metrics", nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(b), nil
}

func parseProm(b []byte) promText {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// delta is after[key] - before[key].
func delta(before, after promText, key string) float64 { return after[key] - before[key] }

// runServe measures serve_zipf on one load server, after an untimed
// warm-up that fills its cache with the top ranks. An untraced run times
// zipfBatches closed-loop batches of Zipf-drawn requests, which mix hits
// and misses, and times server starts before and after each batch. A
// traced run instead sends the lo and hi open-loop steps for the latency
// and per-layer metrics.
func runServe(o options, rr *runRecord) (result, map[string]float64, error) {
	bin := filepath.Join(o.bin, "exaserve")
	logf, err := os.OpenFile(filepath.Join(o.state, "exaserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return result{}, nil, err
	}
	defer logf.Close()
	rr.ServeFlags = serveFlags("127.0.0.1:PORT")
	rr.LimitMS = float64(latencyLimit / time.Millisecond)
	rr.PollMS = float64(pollInterval) / float64(time.Millisecond)
	v := serveVocab()
	pins, err := goldenPins(v)
	if err != nil {
		return result{}, nil, err
	}

	var setups []float64
	starts := func() error {
		more, err := timeStarts(startsPerGap, bin, logf)
		setups = append(setups, more...)
		return err
	}
	if !o.trace {
		if err := starts(); err != nil {
			return result{}, nil, err
		}
	}
	s, err := startServer(bin, logf)
	if err != nil {
		return result{}, nil, err
	}
	defer s.stop()
	setups = append(setups, s.setup.Seconds())
	c := newClient(s.base, pins)
	steps := []stepStats{summarize(c.closedLoop(warmup(o.seed, v), runtime.NumCPU()), 0)}

	m := map[string]float64{}
	if o.trace {
		traced, err := tracedSteps(o, c, v, rr, m)
		if err != nil {
			return result{}, nil, err
		}
		steps = append(steps, traced...)
	} else {
		var walls []float64
		var outs []outcome
		for k := range zipfBatches {
			specs, err := zipfBatch(o.seed, k, batchSize(o.seconds), v)
			if err != nil {
				return result{}, nil, err
			}
			t0 := time.Now()
			outs = append(outs, c.closedLoop(specs, batchUsers)...)
			walls = append(walls, time.Since(t0).Seconds())
			if err := starts(); err != nil {
				return result{}, nil, err
			}
		}
		all := summarize(outs, 0)
		steps = append(steps, all)
		m["wall_s"] = median(walls)
		m["setup_s"] = median(setups)
		m["max_rss_mb"] = float64(vmHWM(strconv.Itoa(s.cmd.Process.Pid))) / 1024
		m["batch.requests"] = float64(all.sent) / zipfBatches
		m["batch.hit_ratio"] = ratio(float64(all.hits), float64(all.sent))
		m["batch.hit_ms_mean"] = ratio(sum(all.hitLat), float64(len(all.hitLat)))
		m["batch.miss_ms_mean"] = ratio(sum(all.missLat), float64(len(all.missLat)))
		// With one user the requests run one after another, so these are
		// the shares of the batches' time that hits and the simulator's
		// executions take; the rest is the misses' path through HTTP,
		// admission, the pool queue, polling and the job store.
		m["batch.hit_time_frac"] = ratio(sum(all.hitLat)/1000, sum(walls))
		m["batch.exec_time_frac"] = ratio(sum(all.exec)/1000, sum(walls))
	}

	var res result
	res.Correct = true
	for _, st := range steps {
		res.Attempted += st.sent
		res.Failed += st.failed
		if st.wrong > 0 {
			res.Correct = false
		}
	}
	m["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	return res, m, nil
}

// tracedSteps runs the traced run's open-loop steps: lo untraced, a
// traced copy of lo on a fresh schedule (for the tracing overhead), and hi
// traced. It fills the latency and per-layer metrics from them, writes the
// spans, and returns the three steps' stats.
func tracedSteps(o options, c *client, v []serve.Spec, rr *runRecord, m map[string]float64) ([]stepStats, error) {
	rr.RateLo, rr.RateHi = rateLo, rateHi
	loDur, hiDur := loShare*float64(o.seconds), hiShare*float64(o.seconds)
	loArr, err := arrivals(o.seed, 1, rateLo, loDur, v)
	if err != nil {
		return nil, err
	}
	loCopy, err := arrivals(o.seed, 4, rateLo, loDur, v)
	if err != nil {
		return nil, err
	}
	hiArr, err := arrivals(o.seed, 2, rateHi, hiDur, v)
	if err != nil {
		return nil, err
	}
	lo := summarize(c.openLoop(loArr), loDur)
	c.rec = newRecorder() // spans of the traced lo step only price the tracing
	loTraced := summarize(c.openLoop(loCopy), loDur)
	spans := newRecorder()
	c.rec = spans
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	hi := summarize(c.openLoop(hiArr), hiDur)
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	c.rec = nil

	for name, st := range map[string]stepStats{"lo": lo, "hi": hi} {
		p50, _ := percentile(st.lat, 50)
		p99, ok := tail(st.lat, 99)
		m["lat_p50_ms."+name], m["lat_p99_ms."+name] = p50, p99
		if !ok {
			rr.Notes = append(rr.Notes, fmt.Sprintf("%s: %d requests leave fewer than %d beyond p99", name, st.sent, minBeyond))
		}
	}
	for _, st := range []stepStats{lo, loTraced, hi} {
		lag, _ := percentile(st.lag, 99)
		rr.GenLagMS = max(rr.GenLagMS, lag)
	}
	m["hit_p50_ms.hi"], _ = percentile(hi.hitLat, 50)
	m["miss_p50_ms.hi"], _ = percentile(hi.missLat, 50)
	m["goodput_rps.hi"] = float64(hi.good) / hi.durS
	m["bench.gen_lag_p99_ms"] = rr.GenLagMS
	if rr.GenLagMS > float64(maxGenLag/time.Millisecond) {
		rr.Valid = false
		rr.Notes = append(rr.Notes, fmt.Sprintf("generator lag p99 %.3f ms exceeds %v", rr.GenLagMS, maxGenLag))
	}

	// Per-layer numbers come from the hi step; the /metrics scrapes
	// bracket it exactly.
	for _, route := range []string{"submit", "poll", "result"} {
		m["serve."+route+"_ms_p50"], _ = percentile(spans.durations("http."+route, time.Millisecond), 50)
	}
	loP50, _ := percentile(lo.lat, 50)
	tracedP50, _ := percentile(loTraced.lat, 50)
	m["bench.trace_overhead_frac"] = tracedP50/loP50 - 1
	const httpSec = "exaresil_serve_http_request_seconds"
	m["serve.submit_server_ms_mean"] = 1000 * ratio(
		delta(before, after, httpSec+`_sum{route="submit"}`),
		delta(before, after, httpSec+`_count{route="submit"}`))
	m["serve.hit_ratio"] = ratio(float64(hi.hits), float64(hi.sent))
	m["serve.join_ratio"] = ratio(float64(hi.joined), float64(hi.sent))
	m["serve.cache_evictions"] = delta(before, after, "exaresil_serve_cache_evictions_total")
	m["serve.reject_frac"] = ratio(float64(hi.rejected), float64(hi.sent))
	m["serve.queue_wait_ms_p50"], _ = percentile(hi.queueWait, 50)
	m["serve.queue_wait_ms_p99"], _ = percentile(hi.queueWait, 99)
	m["serve.exec_ms_p50"], _ = percentile(hi.exec, 50)
	execs := delta(before, after, "exaresil_serve_executions_total")
	m["serve.exec_per_miss"] = ratio(execs, float64(hi.misses))
	m["serve.polls_per_miss"] = ratio(float64(hi.polls), float64(hi.misses))
	serverMisses := delta(before, after, `exaresil_serve_cache_requests_total{outcome="miss"}`)
	m["serve.miss_overcount"] = serverMisses - float64(hi.misses)
	reconcile(rr, before, after, hi)

	dir := filepath.Join(o.state, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	rr.Notes = append(rr.Notes, "spans: "+path)
	return []stepStats{lo, loTraced, hi}, nil
}

// reconcile differences the client's tally of the hi step against the
// server's counters over the same interval and notes every disagreement
// in the run record. Misses are known to be over-counted by the server
// by the number of refused submissions (the cache counts a miss before
// admission); serve.miss_overcount reports that difference.
func reconcile(rr *runRecord, before, after promText, hi stepStats) {
	check := func(what string, server float64, client int) {
		if server != float64(client) {
			rr.Notes = append(rr.Notes, fmt.Sprintf("reconcile %s: server %.0f, client %d", what, server, client))
		}
	}
	const cache = "exaresil_serve_cache_requests_total"
	check("hits", delta(before, after, cache+`{outcome="hit"}`), hi.hits)
	check("joins", delta(before, after, cache+`{outcome="joined"}`), hi.joined)
	check("misses", delta(before, after, cache+`{outcome="miss"}`), hi.misses)
	check("rejections", delta(before, after, "exaresil_serve_queue_rejections_total"), hi.rejected)
	check("executions", delta(before, after, "exaresil_serve_executions_total"), hi.misses)
	jobSec := "exaresil_serve_job_seconds"
	if n := delta(before, after, jobSec+"_count"); n > 0 && len(hi.exec) > 0 {
		server := 1000 * delta(before, after, jobSec+"_sum") / n
		client := sum(hi.exec) / float64(len(hi.exec))
		if math.Abs(server-client) > 0.2*client+1 {
			rr.Notes = append(rr.Notes, fmt.Sprintf("reconcile exec ms: server mean %.3f, client mean %.3f", server, client))
		}
	}
}
