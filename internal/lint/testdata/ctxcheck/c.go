// Package ctxchecktest is a golden fixture for the ctxcheck analyzer. Its
// synthetic import path ends in /blockserve, placing it below the serve
// boundary where contexts must carry deadlines and must propagate.
package ctxchecktest

import (
	"context"
	"time"
)

type app struct{}

func (a *app) work(ctx context.Context) error { return ctx.Err() }

func (a *app) workNoCtx() {}

// direct passes a bare context straight into a call.
func direct(a *app) {
	a.work(context.Background()) // want `context\.Background\(\) is passed to [a-z]*\.?app\.work below the serve boundary`
}

// spawned hands a connection goroutine a bare context in place of the
// server's lifetime context.
func spawned(a *app) {
	go a.work(context.Background()) // want `context\.Background\(\) is passed to [a-z]*\.?app\.work below the serve boundary`
}

// flows tracks the bare value through a variable.
func flows(a *app) {
	ctx := context.Background()
	a.work(ctx) // want `context\.Background\(\) \(created at line \d+\) is passed to [a-z]*\.?app\.work still bare`
}

// wrapped derives a deadline first: the With* first argument is the one
// sanctioned consumer of a bare context.
func wrapped(a *app) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	a.work(ctx)
}

// branchy wraps on only one path; the merge keeps the may-bare fact.
func branchy(a *app, deadline bool) {
	ctx := context.Background()
	if deadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Second)
		defer cancel()
	}
	a.work(ctx) // want `context\.Background\(\) \(created at line \d+\) is passed to [a-z]*\.?app\.work still bare`
}

// escapes returns the bare context to a caller that will assume it works.
func escapes() context.Context {
	ctx := context.TODO()
	return ctx // want `context\.TODO\(\) \(created at line \d+\) is returned to the caller still bare`
}

// dropped never touches its context: everything below it detaches from the
// caller's deadline.
func dropped(ctx context.Context, a *app) { // want `context parameter ctx is never used`
	a.workNoCtx()
}

// blankOK is the explicit opt-out spelling.
func blankOK(_ context.Context, a *app) {
	a.workNoCtx()
}

// threaded uses its context: clean.
func threaded(ctx context.Context, a *app) error {
	return a.work(ctx)
}

// bootPath is a justified exception: nothing above it owns a deadline.
func bootPath(a *app) {
	//lint:ignore ctxcheck the boot path has no caller deadline to inherit
	a.work(context.Background())
}
