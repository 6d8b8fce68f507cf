// Request collapsing: concurrent /v1/analyze requests for the same
// (workload, config-fingerprint) share one pipeline run and one marshalled
// response instead of queuing duplicate work. The key is
// pipeline.Fingerprint — the exact cumulative cache key the staged pipeline
// uses — so two requests collapse precisely when their runs would produce
// byte-identical artifacts.
package serve

import (
	"context"
	"errors"
	"sync"
)

// flight is one in-progress analyze computation; followers wait on done and
// then share body/err.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// flightGroup deduplicates in-flight computations by key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do returns the response bytes for key, computing them with fn exactly
// once across all concurrent callers; joined runs for each caller that
// waits on another's run. A follower whose own ctx expires stops waiting
// and returns the context error; a follower whose leader was cancelled
// (the leader's deadline, not the follower's) retries as a fresh flight
// rather than inheriting an interruption that says nothing about its own
// request.
func (g *flightGroup) do(ctx context.Context, key string, joined func(), fn func() ([]byte, error)) ([]byte, error) {
	for {
		g.mu.Lock()
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			joined()
			select {
			case <-f.done:
				if isCancellation(f.err) && ctx.Err() == nil {
					continue
				}
				return f.body, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()

		f.body, f.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		return f.body, f.err
	}
}

// isCancellation reports whether err describes an interrupted run rather
// than a property of the requested analysis.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
