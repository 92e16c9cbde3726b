package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// The admission errors the pool can return.
var (
	// ErrSaturated: the target shard's queue is full. The HTTP layer maps
	// this to 429 with a Retry-After estimate.
	ErrSaturated = errors.New("serve: queue saturated")
	// ErrDraining: the pool stopped accepting work for shutdown. Mapped
	// to 503.
	ErrDraining = errors.New("serve: draining")
)

// Pool is the bounded, sharded worker pool: a fixed set of workers, each
// owning one shard — a mutex-and-condvar guarded queue of flights.
// Flights are routed to shards by cache-key hash (shardOf), so the shards
// need no cross-worker stealing. Identical specs never queue twice: the
// cache joins them to one flight before admission. The shards are kept
// over a single FIFO queue by measurement: at the saturation knee a
// one-FIFO pool read a worse median p99 on both seeds measured, and won
// only past the knee. Admission never blocks: a full shard rejects
// immediately (backpressure) instead of queueing without bound. Unlike a
// channel, the queue supports discard: a flight whose every subscriber
// canceled while it waited is removed on the spot, releasing its
// admission slot immediately instead of holding backpressure capacity
// until a worker reaches and skips it.
type Pool struct {
	shards []*shardq
	depth  int // per-shard queue capacity
	exec   func(*flight)
	wg     sync.WaitGroup
	m      *Metrics
}

// shardq is one worker's queue.
type shardq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*flight
	closed bool // drain: admission refused; the worker exits once empty
}

// newPool builds a pool of `workers` shards with `queueDepth` total queue
// slots spread across them (at least one per shard).
func newPool(workers, queueDepth int, exec func(*flight), m *Metrics) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 2 * workers
	}
	depth := queueDepth / workers
	if depth < 1 {
		depth = 1
	}
	p := &Pool{shards: make([]*shardq, workers), depth: depth, exec: exec, m: m}
	for i := range p.shards {
		q := &shardq{}
		q.cond = sync.NewCond(&q.mu)
		p.shards[i] = q
		m.QueueDepth(i).Set(0) // register the series before traffic
	}
	return p
}

// start launches one worker goroutine per shard.
func (p *Pool) start() {
	p.wg.Add(len(p.shards))
	for i, q := range p.shards {
		go p.work(i, q)
	}
}

// work is one shard's worker loop: pop the oldest flight, execute it,
// repeat. It exits once the shard is closed (drain) and its queue is
// empty — queued work always finishes first, so drain never drops a
// flight.
func (p *Pool) work(idx int, q *shardq) {
	defer p.wg.Done()
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			q.mu.Unlock()
			return
		}
		fl := q.items[0]
		copy(q.items, q.items[1:])
		q.items[len(q.items)-1] = nil
		q.items = q.items[:len(q.items)-1]
		q.mu.Unlock()
		p.m.QueueDepth(idx).Add(-1)
		p.exec(fl)
	}
}

// submit routes a flight to its shard, stamping fl.shard with the index it
// queued on. It never blocks.
func (p *Pool) submit(fl *flight) error {
	idx := shardOf(fl.key, len(p.shards))
	q := p.shards[idx]
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.items) >= p.depth {
		p.m.QueueRejected.Inc()
		return ErrSaturated
	}
	fl.shard = idx
	q.items = append(q.items, fl)
	p.m.QueueDepth(idx).Add(1)
	q.cond.Signal()
	return nil
}

// discard removes a still-queued flight from its shard, releasing the
// admission slot immediately (the DELETE-a-queued-job path). It reports
// whether the flight was found; false means a worker already popped it,
// in which case the worker's begin() check skips the aborted flight.
func (p *Pool) discard(fl *flight) bool {
	q := p.shards[fl.shard]
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, f := range q.items {
		if f == fl {
			q.items = append(q.items[:i], q.items[i+1:]...)
			p.m.QueueDepth(fl.shard).Add(-1)
			return true
		}
	}
	return false
}

// workers reports the pool width.
func (p *Pool) workers() int { return len(p.shards) }

// queueCapacity reports the queue slots across all shards.
func (p *Pool) queueCapacity() int { return p.depth * len(p.shards) }

// queued reports the flights currently waiting across all shards.
func (p *Pool) queued() int {
	n := 0
	for _, q := range p.shards {
		q.mu.Lock()
		n += len(q.items)
		q.mu.Unlock()
	}
	return n
}

// drain stops admission, closes the shards, and waits for every queued and
// running flight to finish — no in-flight job is dropped. It fails only if
// ctx expires first.
func (p *Pool) drain(ctx context.Context) error {
	for _, q := range p.shards {
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d flights still queued: %w", p.queued(), ctx.Err())
	}
}
