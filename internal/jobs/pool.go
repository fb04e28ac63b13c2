package jobs

import (
	"log"
	"runtime/debug"
	"sync"

	"hdlts/internal/obs"
)

// Pool is a bounded worker pool with a fixed-capacity request queue: the
// daemon's one place where solves run. /v1/schedule requests and job
// attempts share it, so one -workers/-queue pair bounds both. Work is
// admitted without blocking: when the queue is full, TrySubmit refuses
// immediately so the HTTP layer can answer 429 instead of building an
// unbounded backlog. Close drains — every admitted func runs before Close
// returns, which is what makes SIGTERM drain graceful. A func that panics
// is logged and abandoned; its worker goes on to the next.
type Pool struct {
	queue chan func()
	wg    sync.WaitGroup
	depth *obs.Gauge // queued-but-not-running funcs; nil disables

	mu     sync.RWMutex
	closed bool
}

// NewPool starts workers goroutines consuming a queue of the given
// capacity. depth, when non-nil, tracks the instantaneous queue backlog.
func NewPool(workers, capacity int, depth *obs.Gauge) *Pool {
	p := &Pool{queue: make(chan func(), capacity), depth: depth}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				if p.depth != nil {
					p.depth.Dec()
				}
				runRecovered(job)
			}
		}()
	}
	return p
}

// runRecovered calls job, logging a panic instead of letting it end the
// process: the solves recover their own, but a bug in what runs around
// them (claiming or committing a job) must not take every other request
// and job down with it.
func runRecovered(job func()) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("jobs: pool func panicked: %v\n%s", p, debug.Stack())
		}
	}()
	job()
}

// TrySubmit enqueues job without blocking. It reports false when the queue
// is saturated or the pool is closed.
func (p *Pool) TrySubmit(job func()) bool { return p.Submit(nil, job) }

// Submit enqueues job, waiting for queue room until stop is closed; a nil
// stop refuses at once instead, as TrySubmit. It reports false if stop
// closed first or the pool is closed. A waiting Submit holds off Close
// only until a worker frees a slot.
func (p *Pool) Submit(stop <-chan struct{}, job func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	// Count the func before the send: once it is sent, a worker may take
	// it and decrement the gauge before this goroutine runs again.
	if p.depth != nil {
		p.depth.Inc()
	}
	select {
	case p.queue <- job:
		return true
	default:
	}
	if stop != nil {
		select {
		case p.queue <- job:
			return true
		case <-stop:
		}
	}
	if p.depth != nil {
		p.depth.Dec()
	}
	return false
}

// Close stops intake and blocks until every admitted func has run. It is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
