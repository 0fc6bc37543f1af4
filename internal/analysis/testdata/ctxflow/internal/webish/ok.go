// Package webish is outside the goroutine-scope packages: ctx-blind
// goroutines are not flagged here, but Background/TODO still are.
package webish

func Spawn() {
	done := make(chan struct{})
	go func() { close(done) }() // ok: outside the mining goroutine scope
	<-done
}
