// Package ctxflowbad breaks context discipline every way ctxflow must
// catch: library code minting a Background or TODO root, minting one
// inline where ctx is in scope, laundering one through a local, and
// doing it from a capturing literal — alongside correct forwarding and
// the sanctioned WithoutCancel detach.
package ctxflowbad

import "context"

func helper(ctx context.Context) error { return ctx.Err() }

// Root mints a root context in library code.
func Root() context.Context {
	return context.Background() // want ctxflow
}

// Todo is no better.
func Todo() context.Context {
	ctx := context.TODO() // want ctxflow
	return ctx
}

// Sever has ctx in scope but hands the callee a fresh root: one
// finding, the mint.
func Sever(ctx context.Context) error {
	return helper(context.Background()) // want ctxflow
}

// Derived launders the root through a local definition: the mint, and
// then the severed call.
func Derived(ctx context.Context) error {
	bg := context.TODO() // want ctxflow
	return helper(bg)    // want ctxflow
}

// Wrapped roots a derivation chain in Background and forwards it.
func Wrapped(ctx context.Context) error {
	wctx, cancel := context.WithTimeout(context.Background(), 0) // want ctxflow
	defer cancel()
	return helper(wctx) // want ctxflow
}

// Captured severs from inside a literal capturing the enclosing ctx.
func Captured(ctx context.Context) func() error {
	return func() error {
		return helper(context.Background()) // want ctxflow
	}
}

// Forward is the point of the convention: quiet.
func Forward(ctx context.Context) error {
	return helper(ctx)
}

// Detach is the sanctioned way to outlive the caller: quiet.
func Detach(ctx context.Context) error {
	return helper(context.WithoutCancel(ctx))
}

// NoScope has no ctx in scope; the mint alone is the finding.
func NoScope() error {
	return helper(context.Background()) // want ctxflow
}
