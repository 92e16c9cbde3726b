package serveclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"exaresil/internal/rng"
	"exaresil/internal/serve"
)

// Options tunes a Client. The zero value is usable.
type Options struct {
	// HTTP is the transport (default http.DefaultClient). Per-request
	// contexts still bound every call.
	HTTP *http.Client
	// Backoff shapes the retry schedule.
	Backoff Backoff
	// MaxAttempts bounds submissions per Run — the first plus every
	// retry and resubmission (default 8).
	MaxAttempts int
	// PollInterval paces job polling (default 25ms).
	PollInterval time.Duration
	// Seed drives the jitter stream (default 1); equal seeds give equal
	// schedules.
	Seed uint64
}

// Client talks to one exaserve endpoint with retries, backoff, and result
// verification. Safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	bo          Backoff
	maxAttempts int
	poll        time.Duration

	mu  sync.Mutex
	rnd *rng.Source
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts Options) *Client {
	if opts.HTTP == nil {
		opts.HTTP = http.DefaultClient
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		base:        strings.TrimRight(base, "/"),
		hc:          opts.HTTP,
		bo:          opts.Backoff,
		maxAttempts: opts.MaxAttempts,
		poll:        opts.PollInterval,
		rnd:         rng.New(seed),
	}
}

// RunResult is one successfully completed job.
type RunResult struct {
	// JobID is the job that finally produced the result.
	JobID string
	// Cache is the final job's cache disposition (miss, hit, joined).
	Cache string
	// CSV is the exhibit's result, verified against Digest.
	CSV []byte
	// Digest is the CSV's SHA-256 as the server advertised it.
	Digest string
	// Attempts is the number of submissions Run performed (1 = no
	// retries were needed).
	Attempts int
}

// permanentError marks failures that retrying cannot fix (bad spec,
// corrupt result); Run returns them immediately.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// errResubmit marks a job that ended without a result (failed, canceled,
// or evicted); the spec is safe to resubmit — the server dedups by spec
// hash and resumes grid work from its snapshot.
var errResubmit = errors.New("serveclient: job ended without a result")

// Run submits spec, polls its job to completion, fetches and verifies
// the result, and retries every transient failure along the way:
// transport errors, 5xx, 429/503 (honoring Retry-After), failed or
// vanished jobs. It returns the verified result, a permanent error, or —
// once the attempt budget is spent or ctx expires — the last failure.
func (c *Client) Run(ctx context.Context, spec serve.Spec) (*RunResult, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serveclient: %w (last failure: %v)", err, lastErr)
		}
		if attempt > 0 {
			var retryAfter time.Duration
			var ra *retryAfterError
			if errors.As(lastErr, &ra) {
				retryAfter = ra.after
			}
			if err := c.sleep(ctx, c.bo.Delay(attempt-1, retryAfter, c.uniform)); err != nil {
				return nil, fmt.Errorf("serveclient: %w (last failure: %v)", err, lastErr)
			}
		}
		view, err := c.submit(ctx, spec)
		if err != nil {
			var perm *permanentError
			if errors.As(err, &perm) {
				return nil, err
			}
			lastErr = err
			continue
		}
		res, err := c.await(ctx, view)
		if err != nil {
			var perm *permanentError
			if errors.As(err, &perm) {
				return nil, err
			}
			lastErr = err
			continue
		}
		res.Attempts = attempt + 1
		return res, nil
	}
	return nil, fmt.Errorf("serveclient: giving up after %d attempts: %w", c.maxAttempts, lastErr)
}

// retryAfterError carries a server-requested pause to the backoff.
type retryAfterError struct {
	status int
	after  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("serveclient: server busy (HTTP %d, retry after %s)", e.status, e.after)
}

// submit POSTs the spec once.
func (c *Client) submit(ctx context.Context, spec serve.Spec) (serve.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobView{}, &permanentError{fmt.Errorf("serveclient: encode spec: %w", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.JobView{}, fmt.Errorf("serveclient: submit: %w", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		var v serve.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			return serve.JobView{}, fmt.Errorf("serveclient: decode job view: %w", err)
		}
		return v, nil
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		return serve.JobView{}, &retryAfterError{status: resp.StatusCode, after: parseRetryAfter(resp.Header)}
	case resp.StatusCode >= 500:
		return serve.JobView{}, fmt.Errorf("serveclient: submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	default:
		return serve.JobView{}, &permanentError{fmt.Errorf("serveclient: submit rejected: HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(raw)))}
	}
}

// await polls the job to a terminal state and fetches its result. Poll
// and fetch failures are tolerated a bounded number of consecutive
// times; a vanished (404) or failed job returns errResubmit so Run can
// resubmit idempotently.
func (c *Client) await(ctx context.Context, view serve.JobView) (*RunResult, error) {
	const maxConsecutive = 10
	failures := 0
	for {
		switch view.State {
		case "done":
			csv, err := c.fetchResult(ctx, view)
			if err != nil {
				return nil, err
			}
			return &RunResult{JobID: view.ID, Cache: view.Cache, CSV: csv, Digest: view.Digest}, nil
		case "failed", "canceled":
			return nil, fmt.Errorf("%w: job %s %s: %s", errResubmit, view.ID, view.State, view.Error)
		}
		if err := c.sleep(ctx, c.poll); err != nil {
			return nil, err
		}
		next, code, err := c.getJob(ctx, view.ID)
		switch {
		case err != nil || code >= 500:
			failures++
			if failures >= maxConsecutive {
				return nil, fmt.Errorf("%w: job %s unpollable (%d consecutive failures, last: HTTP %d, %v)",
					errResubmit, view.ID, failures, code, err)
			}
			if serr := c.sleep(ctx, c.bo.Delay(failures-1, 0, c.uniform)); serr != nil {
				return nil, serr
			}
		case code == http.StatusNotFound:
			return nil, fmt.Errorf("%w: job %s vanished (evicted or lost)", errResubmit, view.ID)
		case code == http.StatusOK:
			failures = 0
			view = next
		default:
			return nil, &permanentError{fmt.Errorf("serveclient: poll %s: unexpected HTTP %d", view.ID, code)}
		}
	}
}

// getJob GETs one job view.
func (c *Client) getJob(ctx context.Context, id string) (serve.JobView, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, resp.StatusCode, nil
	}
	var v serve.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return serve.JobView{}, resp.StatusCode, err
	}
	return v, resp.StatusCode, nil
}

// fetchResult downloads a done job's CSV and verifies it against the
// advertised digest — a corrupted or wrong result is a permanent error,
// never silently accepted.
func (c *Client) fetchResult(ctx context.Context, view serve.JobView) ([]byte, error) {
	const tries = 3
	var lastErr error
	for i := 0; i < tries; i++ {
		if i > 0 {
			if err := c.sleep(ctx, c.bo.Delay(i-1, 0, c.uniform)); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+view.ID+"/result", nil)
		if err != nil {
			return nil, &permanentError{err}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("serveclient: result %s: HTTP %d", view.ID, resp.StatusCode)
			if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusNotFound {
				// The job regressed out from under us (evicted): resubmit.
				return nil, fmt.Errorf("%w: %v", errResubmit, lastErr)
			}
			continue
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); view.Digest != "" && got != view.Digest {
			return nil, &permanentError{fmt.Errorf("serveclient: result %s corrupt: sha256 %s, job advertises %s",
				view.ID, got, view.Digest)}
		}
		if hdr := resp.Header.Get("X-Exaresil-Digest"); hdr != "" && view.Digest != "" && hdr != view.Digest {
			return nil, &permanentError{fmt.Errorf("serveclient: result %s: header digest %s != job digest %s",
				view.ID, hdr, view.Digest)}
		}
		return raw, nil
	}
	return nil, fmt.Errorf("serveclient: result %s unfetchable: %w", view.ID, lastErr)
}

// uniform draws one jitter variate; the source is guarded because Run
// may be called from many goroutines.
func (c *Client) uniform() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rnd.Float64()
}

// sleep waits d or until ctx ends.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads an integer-seconds Retry-After header (the only
// form exaserve emits); absent or unparsable headers yield 0, letting
// the backoff schedule decide.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
