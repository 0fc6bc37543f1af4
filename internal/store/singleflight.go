package store

import (
	"context"
	"errors"
	"sync"
)

// Flight deduplicates concurrent identical work: while one caller (the
// leader) computes the value for a key, followers arriving with the same
// key block and receive the leader's result instead of recomputing it.
// MapRat puts a Flight in front of the LRU result cache so a burst of
// identical queries — the demo-booth hot spot — mines once, not N times.
//
// The zero Flight is ready to use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Do executes fn once per key among concurrent callers and hands every
// caller the same (val, err). shared reports whether the value came from
// another caller's execution.
//
// Cancellation stays per-caller: a follower whose own ctx ends stops
// waiting and returns ctx.Err() without affecting the leader, and when the
// leader itself is cancelled its context error is not propagated to
// followers — a surviving follower retries as the new leader.
func (f *Flight) Do(ctx context.Context, key string, fn func() (any, error)) (val any, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		f.mu.Lock()
		if f.calls == nil {
			f.calls = make(map[string]*flightCall)
		}
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				continue // the leader died of its own context; try again
			}
			return c.val, true, c.err
		}
		c := &flightCall{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()

		// Deregister and wake followers even if fn panics — otherwise the
		// dead call would block every future caller for this key forever.
		func() {
			defer func() {
				f.mu.Lock()
				delete(f.calls, key)
				f.mu.Unlock()
				close(c.done)
			}()
			c.err = errFlightPanic
			c.val, c.err = fn()
		}()
		return c.val, false, c.err
	}
}

// errFlightPanic is what followers observe when a leader's fn panicked
// before assigning a result (the panic itself propagates to the leader).
var errFlightPanic = errors.New("store: singleflight leader panicked")
