package serve

import (
	"errors"
	"sync"
)

// Backpressure sentinels: the HTTP layer maps errBusy to 429 (the
// shard's bounded queue is full — retry) and errDraining to 503 (the
// server is shutting down — go elsewhere). Explicit rejection instead of
// blocking is the whole point of the bounded queues: a burst against one
// shard sheds load instead of tying up handler goroutines.
var (
	errBusy     = errors.New("serve: shard queue full")
	errDraining = errors.New("serve: server draining")
)

// task is one unit of work executed on a shard loop. fn runs on the
// shard's goroutine with exclusive access to every session owned by the
// shard; done closes when it has run. Results travel through variables
// the closure captures — the submitter reads them only after <-done.
type task struct {
	fn   func()
	done chan struct{}
}

// shard is one worker: a goroutine-owned loop draining a bounded task
// queue. Each session is placed on the least-loaded shard at admission
// and every operation on a session executes on its shard's loop, so
// session state needs no locks — the shard loop is the session's single
// writer (the same ownership discipline the orchestrate/buffer pipelines
// in slog-agent use).
type shard struct {
	id     int
	tasks  chan *task
	stop   chan struct{} // closed by Shutdown after the last submission
	exited chan struct{} // closed by the loop on exit

	// load counts the sessions placed here that can still step: the
	// placement key (Server.place). Guarded by Server.mu, not mu.
	load int

	// mu orders trySubmit's enqueue against the loop's exit: the loop
	// sets closed under mu before its final queue drain, so every
	// trySubmit either lands its task before that drain or is rejected —
	// no task can slip into the channel after the loop stops reading it
	// (which would strand the submitter on <-t.done forever).
	mu     sync.Mutex
	closed bool
}

func newShard(id, depth int) *shard {
	return &shard{
		id:     id,
		tasks:  make(chan *task, depth),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
}

// run is the shard loop. After stop closes it drains whatever is already
// queued (Shutdown guarantees no further submissions) and exits.
func (sh *shard) run(logf func(string, ...any)) {
	runOne := func(t *task) {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil && logf != nil {
				// A panicking task (a poisoned simulation session) must
				// not take the shard loop down with it: every other
				// session on the shard would hang.
				logf("shard %d: task panic: %v", sh.id, r)
			}
		}()
		t.fn()
	}
	for {
		select {
		case t := <-sh.tasks:
			runOne(t)
		case <-sh.stop:
			// Refuse further trySubmits before the final drain: any
			// enqueue serialized before this flag flipped is already in
			// the buffered channel, so the drain below runs it; any
			// after sees closed and gets errDraining.
			sh.mu.Lock()
			sh.closed = true
			sh.mu.Unlock()
			for {
				select {
				case t := <-sh.tasks:
					runOne(t)
				default:
					close(sh.exited)
					return
				}
			}
		}
	}
}

// trySubmit enqueues fn without blocking; a full queue is an immediate
// errBusy, never a wait — the caller turns it into a backpressure status.
// Once the shard loop has stopped it returns errDraining: holding mu
// across the enqueue guarantees the loop's final drain sees every task
// accepted here.
func (sh *shard) trySubmit(fn func()) (*task, error) {
	t := &task{fn: fn, done: make(chan struct{})}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, errDraining
	}
	select {
	case sh.tasks <- t:
		return t, nil
	default:
		return nil, errBusy
	}
}
