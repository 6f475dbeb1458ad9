package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// The analysis pipeline's determinism contract, in three rules:
//
//  1. Decomposition is data-driven. Chunk sizes and window boundaries
//     are functions of the input only — never of the worker count — so
//     the same record set always produces the same task graph.
//  2. Tasks own their output slots. Every task writes results into a
//     pre-sized slot indexed by its chunk/window number; no two tasks
//     share a mutable location, so scheduling order cannot race or
//     reorder anything.
//  3. Merges are single-goroutine and fixed-order. The coordinator
//     reduces the slots in submission order. All float accumulation
//     happens there (or inside one task over the canonical record
//     order), never across goroutines.
//
// Under these rules the worker count only decides how many tasks run at
// once — Parallelism: 1 executes the identical windowed algorithm on
// one goroutine — so analysis output is bit-identical at any
// parallelism.

// recordShardTarget is the streaming pipeline's record-chunk size (the
// Fig 7 join, attribution and Fig 9 CDF tasks): big enough that
// per-chunk overhead is noise, small enough that a paper-scale run
// (~2M records) fans out well.
const recordShardTarget = 1 << 17

// streamPool runs figure-window and record-chunk tasks for the
// streaming pipeline. It accepts work incrementally — tasks are
// submitted as the sweep closes windows — under the three-rule
// contract: every submitted task writes one pre-sized slot, and the
// coordinator merges completed slots in submission order via the
// per-task done channels (the "ready prefix"), never in completion
// order. The task channel's small buffer is the pipeline's
// backpressure: a slow pool blocks the sweep, bounding in-flight window
// copies and unmerged slots by O(workers), which is what keeps
// streaming analysis memory O(window).
type streamPool struct {
	ctx    context.Context
	seq    bool
	tasks  chan func()
	wg     sync.WaitGroup
	failed atomic.Pointer[poolPanic]
	waited bool
}

// poolPanic boxes the first task panic for re-raising on the caller.
type poolPanic struct{ val any }

// newStreamPool starts workers goroutines (none when workers <= 1:
// submit then runs tasks inline, the sequential reference path).
func newStreamPool(ctx context.Context, workers int) *streamPool {
	p := &streamPool{ctx: ctx}
	if workers <= 1 {
		p.seq = true
		return p
	}
	p.tasks = make(chan func(), workers)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// submit schedules fn and returns a channel closed when it has run (or
// been skipped after cancellation/panic — the channel always closes, so
// ready-prefix merges never wedge). Blocks when the pool is saturated.
func (p *streamPool) submit(fn func()) <-chan struct{} {
	done := make(chan struct{})
	wrapped := func() {
		defer close(done)
		defer func() {
			if v := recover(); v != nil {
				p.failed.CompareAndSwap(nil, &poolPanic{val: v})
			}
		}()
		if p.ctx.Err() == nil && p.failed.Load() == nil {
			fn()
		}
	}
	if p.seq {
		wrapped()
	} else {
		p.tasks <- wrapped
	}
	return done
}

// wait drains the pool, re-raises the first task panic, and reports
// ctx.Err(). Idempotent, so error paths can call it for cleanup.
func (p *streamPool) wait() error {
	if !p.waited {
		p.waited = true
		if !p.seq {
			close(p.tasks)
			p.wg.Wait()
		}
	}
	if pb := p.failed.Load(); pb != nil {
		panic(pb.val)
	}
	return p.ctx.Err()
}
