package gostmt

// Test goroutines feed no result, so test files need no registration.
func concurrentCallers() {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}
