package engine

import (
	"context"
	"fmt"
)

// Canceled is the panic sentinel raised when the context.Context bound to
// an engine Context is done. The execution entry points recover it at
// their boundary and turn it back into an ordinary error: core.Executor's
// RunContext (the optimizer's profile is a run of it too) and the fitted
// pipeline's batch and block paths. So cancellation unwinds the deep
// recursive evaluation — including estimator fits blocked mid-pass inside
// a Fetch — without threading an error return through every operator
// signature.
type Canceled struct {
	Err error // the underlying context error (context.Canceled or DeadlineExceeded)
}

// Error implements error so a recovered Canceled can be returned directly.
func (c *Canceled) Error() string {
	return fmt.Sprintf("engine: execution canceled: %v", c.Err)
}

// Unwrap exposes the context error for errors.Is(err, context.Canceled).
func (c *Canceled) Unwrap() error { return c.Err }

// WithCancellation returns a copy of the Context bound to ctx: collection
// operations check ctx between partition dispatches and panic with
// *Canceled once it is done. The receiver is not modified (Contexts are
// treated as immutable after construction), so one engine Context can be
// shared across concurrent runs with independent cancellation scopes.
func (ctx *Context) WithCancellation(cancelCtx context.Context) *Context {
	if cancelCtx == nil {
		cancelCtx = context.Background()
	}
	c := *ctx
	c.cancel = cancelCtx
	return &c
}

// Err returns the bound context's error, or nil when no cancellable
// context is bound (or it is still live).
func (ctx *Context) Err() error {
	if ctx.cancel == nil {
		return nil
	}
	return ctx.cancel.Err()
}

// CheckCanceled panics with *Canceled if the bound context is done. It is
// the cooperative cancellation point the executor and the collection
// primitives call between units of work; with no bound context it is a
// nil check and costs nothing on the hot path.
func (ctx *Context) CheckCanceled() {
	if ctx.cancel == nil {
		return
	}
	if err := ctx.cancel.Err(); err != nil {
		panic(&Canceled{Err: err})
	}
}
