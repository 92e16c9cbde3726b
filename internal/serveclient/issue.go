package serveclient

import (
	"context"
	"errors"
	"net/http"
	"time"

	"exaresil/internal/serve"
)

// The classes Issue reports. Unlike Run, Issue never retries: open-loop
// load generation needs each arrival's raw fate, not an eventually
// consistent answer.
const (
	// IssueOK: the job reached done; Latency spans submit to terminal.
	IssueOK = "ok"
	// IssueRejected: the server answered 429 (queue saturated).
	IssueRejected = "rejected"
	// IssueUnavailable: the server answered 503 (draining).
	IssueUnavailable = "unavailable"
	// IssueFailed: the job was admitted but ended failed, canceled, or
	// vanished.
	IssueFailed = "failed"
	// IssueError: transport failure, 5xx, or an unclassifiable response.
	IssueError = "error"
)

// IssueResult is one open-loop request's fate.
type IssueResult struct {
	// Class is one of the Issue* constants.
	Class string
	// JobID names the admitted job, when one existed.
	JobID string
	// Cache is the admission's cache disposition (hit, miss, joined).
	Cache string
	// Latency spans submit to the terminal poll (or to the rejection).
	Latency time.Duration
	// RetryAfter carries the server's backpressure hint on 429/503.
	RetryAfter time.Duration
	// Err holds the underlying failure for the error classes.
	Err error
}

// Issue performs exactly one open-loop request: submit the spec once (no
// retries, no resubmission), poll an admitted job to its terminal state,
// and classify what happened — never re-sending a request the measurement
// already counted.
func (c *Client) Issue(ctx context.Context, spec serve.Spec) IssueResult {
	start := time.Now()
	view, err := c.submit(ctx, spec)
	if err != nil {
		res := IssueResult{Latency: time.Since(start), Err: err}
		var ra *retryAfterError
		switch {
		case errors.As(err, &ra) && ra.status == http.StatusTooManyRequests:
			res.Class = IssueRejected
			res.RetryAfter = ra.after
		case errors.As(err, &ra) && ra.status == http.StatusServiceUnavailable:
			res.Class = IssueUnavailable
			res.RetryAfter = ra.after
		default:
			res.Class = IssueError
		}
		return res
	}

	const maxConsecutive = 5
	failures := 0
	for {
		switch view.State {
		case "done":
			return IssueResult{Class: IssueOK, JobID: view.ID, Cache: view.Cache, Latency: time.Since(start)}
		case "failed", "canceled":
			return IssueResult{Class: IssueFailed, JobID: view.ID, Cache: view.Cache,
				Latency: time.Since(start), Err: errors.New("serveclient: job ended " + view.State)}
		}
		if err := c.sleep(ctx, c.poll); err != nil {
			return IssueResult{Class: IssueError, JobID: view.ID, Latency: time.Since(start), Err: err}
		}
		next, code, err := c.getJob(ctx, view.ID)
		switch {
		case err != nil || code >= 500:
			failures++
			if failures >= maxConsecutive {
				return IssueResult{Class: IssueError, JobID: view.ID, Latency: time.Since(start), Err: err}
			}
		case code == http.StatusNotFound:
			return IssueResult{Class: IssueFailed, JobID: view.ID, Latency: time.Since(start),
				Err: errors.New("serveclient: job vanished")}
		case code == http.StatusOK:
			failures = 0
			view = next
		default:
			return IssueResult{Class: IssueError, JobID: view.ID, Latency: time.Since(start),
				Err: errors.New("serveclient: unexpected poll status")}
		}
	}
}
