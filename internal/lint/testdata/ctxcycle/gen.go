// Package ctxcycle is the ctxpoll fixture for a polling fact that must
// cross a recursive cycle: a and b are mutually recursive, a calls b before
// it calls c, and only c polls the context. The loop in ScheduleContext
// calls b, which reaches the poll through a, so it must not be flagged no
// matter in which order the analysis visits the call graph.
package ctxcycle

import "context"

type S struct{}

func (S) ScheduleContext(ctx context.Context) {
	for i := 0; i < 10; i++ {
		b(ctx, i)
	}
}

func a(ctx context.Context, n int) {
	if n > 0 {
		b(ctx, n-1)
	}
	c(ctx)
}

func b(ctx context.Context, n int) {
	if n > 0 {
		a(ctx, n-1)
	}
}

func c(ctx context.Context) bool { return ctx.Err() != nil }
