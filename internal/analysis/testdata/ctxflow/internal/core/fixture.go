package core

import "context"

func background() context.Context {
	return context.Background() // want `context\.Background`
}

func todo() context.Context {
	return context.TODO() // want `context\.TODO`
}

func badOrder(name string, ctx context.Context) { // want `context\.Context must be the first parameter`
	_ = name
	_ = ctx
}

func goodOrder(ctx context.Context, name string) {
	_ = name
	_ = ctx
}

func spawnBlind() {
	go func() {}() // want `goroutine launched without a context`
}

func spawnUsesCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

func spawnPassesCtx(ctx context.Context) {
	go consume(ctx)
}

func consume(ctx context.Context) { <-ctx.Done() }

func annotatedRoot() context.Context {
	return context.Background() //maprat:allow(ctxflow) fixture: annotated lifecycle root
}

func annotatedSpawn() {
	//maprat:allow(ctxflow) fixture: bounded shard joined before return
	go func() {}()
}
