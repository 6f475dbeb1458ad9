// Test corpus for the gostmt analyzer: every go statement outside test
// files needs a //dctlint:ignore gostmt registration, and a registration
// that no longer sits on or above a go statement is stale.
package gostmt

import "sync"

func work() {}

func unregistered() {
	go work() // want "unregistered go statement"
}

func registeredAboveOK() {
	//dctlint:ignore gostmt one background worker that owns its state and returns nothing
	go work()
}

func registeredSameLineOK(done chan struct{}) {
	go func() { close(done) }() //dctlint:ignore gostmt closes a channel, computes nothing
}

// poolInLoop is the shape the registry exists to catch: a worker pool
// whose goroutines would share whatever their tasks write.
func poolInLoop(workers int, tasks []func()) {
	var wg sync.WaitGroup
	next := make(chan func())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // want "unregistered go statement"
			defer wg.Done()
			for fn := range next {
				fn()
			}
		}()
	}
	for _, fn := range tasks {
		next <- fn
	}
	close(next)
	wg.Wait()
}

func staleRegistration() {
	//dctlint:ignore gostmt the goroutine this excused was deleted // want "stale suppression: no gostmt diagnostic"
	work()
}
