package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// flight is one execution of a spec, shared by every job that submitted an
// identical spec while it was queued or running (single-flight). The
// flight — not the job — is what the worker pool schedules.
type flight struct {
	key   string
	spec  Spec
	shard int // queue index stamped by Pool.submit

	mu       sync.Mutex
	jobs     []*Job // every job attached to this execution
	live     int    // attached jobs not yet canceled
	aborted  bool   // all jobs canceled while still queued: worker skips it
	running  bool
	finished bool
	stop     context.CancelCauseFunc // cancels the execution context, set when running
}

// attach subscribes a job to the flight. It runs under the cache lock that
// found or created the flight, so the flight is live and unfinished: settle
// runs only after the key is completed or forgotten, and abandon forgets an
// aborted or stopped flight in the same critical section that detaches its
// last job. A job joining a running flight starts running at submission.
func (f *flight) attach(j *Job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs = append(f.jobs, j)
	f.live++
	if f.running {
		j.markRunning(j.submitted)
	}
}

// detach removes one canceled job from the flight's live count. It reports
// what the caller must do to the underlying execution: nothing while other
// jobs still want the result, stop the running context when this was the
// last one, or note that a queued flight is now abandoned.
type detachAction int

const (
	detachKeep    detachAction = iota // other jobs still attached
	detachAborted                     // queued flight abandoned: evict key
	detachStopped                     // running flight's context canceled: evict key
	detachLate                        // flight already finished: nothing to stop
)

func (f *flight) detach() detachAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		return detachLate
	}
	if f.live > 0 {
		f.live--
	}
	if f.live > 0 {
		return detachKeep
	}
	if !f.running {
		f.aborted = true
		return detachAborted
	}
	if f.stop != nil {
		f.stop(context.Canceled)
	}
	return detachStopped
}

// begin marks the flight running and flips every attached job to Running.
// It reports false for abandoned flights, which the worker skips.
func (f *flight) begin(stop context.CancelCauseFunc, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted {
		return false
	}
	f.running = true
	f.stop = stop
	for _, j := range f.jobs {
		j.markRunning(now)
	}
	return true
}

// settle finalizes every attached job with the flight's outcome and
// returns how many actually transitioned (already-canceled jobs keep their
// state). Every execFlight path settles once, after completing or
// forgetting the key, so no job can attach after settle.
func (f *flight) settle(state State, res *Result, errMsg string, now time.Time) int {
	f.mu.Lock()
	jobs := f.jobs
	f.finished = true
	f.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if j.finish(state, res, errMsg, now) {
			n++
		}
	}
	return n
}

// Cache is the LRU result cache with integrated single-flight admission.
// A key resolves to either a finished Result (hit) or a live flight
// (join); absent keys insert a new flight under the same lock that chooses
// to admit it, so two identical concurrent submissions can never both
// become leaders. Joining a flight (acquire) and abandoning it (abandon)
// share this lock, so a submission can never join a flight whose last
// subscriber has just left it. Lock order: cache → store or flight → job.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	m     *Metrics
}

// cacheEntry is one key's slot: a live flight while executing, a Result
// once finished. Entries whose flight failed or was canceled are removed,
// never cached — errors are retried, not memoized.
type cacheEntry struct {
	key string
	fl  *flight // non-nil while in flight
	res *Result // non-nil once cached
}

// newCache builds a cache bounded to about cap finished results.
func newCache(cap int, m *Metrics) *Cache {
	if cap <= 0 {
		cap = 128
	}
	return &Cache{cap: cap, ll: list.New(), byKey: make(map[string]*list.Element), m: m}
}

// acquire mints a job for the spec through mint, called under the cache
// lock with its cache status and flight: a hit (no flight; the cached
// result is returned for the caller to finish the job with), a join of an
// existing flight, or a miss that leads a freshly created flight. Joins
// and misses are attached to their flight before the lock is released.
// Creation and admission are atomic: admit runs under the cache lock (it
// must not block — the pool's submit rejects rather than waits) and a
// rejected flight is neither inserted nor minted a job, so a 429 leaves
// no trace. The admit callback routes the flight to its shard.
func (c *Cache) acquire(spec Spec, admit func(*flight) error, mint func(cache string, fl *flight) *Job) (*Job, *Result, error) {
	key := spec.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(elem)
		e := elem.Value.(*cacheEntry)
		if e.res != nil {
			c.m.CacheHits.Inc()
			return mint(CacheHit, nil), e.res, nil
		}
		c.m.CacheJoined.Inc()
		j := mint(CacheJoined, e.fl)
		e.fl.attach(j)
		return j, nil, nil
	}
	fl := &flight{key: key, spec: spec}
	if err := admit(fl); err != nil {
		return nil, nil, err
	}
	c.m.CacheMisses.Inc()
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, fl: fl})
	c.evictLocked()
	c.m.CacheSize.Set(int64(c.ll.Len()))
	j := mint(CacheMiss, fl)
	fl.attach(j)
	return j, nil, nil
}

// abandon detaches one canceled job from its flight. When that job was the
// flight's last live subscriber, the key is forgotten in the same critical
// section, so no later acquire can join the aborted or stopped flight. On
// detachAborted the caller still owes the pool a discard.
func (c *Cache) abandon(fl *flight) detachAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	act := fl.detach()
	if act == detachAborted || act == detachStopped {
		c.forgetLocked(fl)
	}
	return act
}

// complete replaces the flight with its finished result, making the key a
// cache hit for future submissions.
func (c *Cache) complete(fl *flight, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[fl.key]; ok {
		if e := elem.Value.(*cacheEntry); e.fl == fl {
			e.res = res
			e.fl = nil
		}
	}
}

// forget removes the flight's key (failed, timed out, or canceled
// executions are not cached) unless a different flight owns it now.
func (c *Cache) forget(fl *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forgetLocked(fl)
}

func (c *Cache) forgetLocked(fl *flight) {
	if elem, ok := c.byKey[fl.key]; ok {
		if e := elem.Value.(*cacheEntry); e.fl == fl {
			c.ll.Remove(elem)
			delete(c.byKey, fl.key)
			c.m.CacheSize.Set(int64(c.ll.Len()))
		}
	}
}

// evictLocked drops least-recently-used *finished* entries while over
// capacity. In-flight entries are never evicted: jobs are attached to
// them.
func (c *Cache) evictLocked() {
	over := c.ll.Len() - c.cap
	if over <= 0 {
		return
	}
	for elem := c.ll.Back(); elem != nil && over > 0; {
		prev := elem.Prev()
		if e := elem.Value.(*cacheEntry); e.res != nil {
			c.ll.Remove(elem)
			delete(c.byKey, e.key)
			c.m.CacheEvictions.Inc()
			over--
		}
		elem = prev
	}
}

// size reports the number of cached entries (finished and in-flight).
func (c *Cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// shardOf maps a cache key onto a worker shard (FNV-1a over the key), so
// identical specs always land on the same shard and the per-shard queues
// stay independent.
func shardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}
