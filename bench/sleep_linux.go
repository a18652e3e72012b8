package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open-loop dispatcher uses it in place of
// time.Sleep: with nothing else to run, the Go runtime waits for a timer
// in whole milliseconds, which made the dispatcher half a millisecond late
// at the median and turned read latency into a measure of that rounding.
// A nanosleep system call wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps the rest
	}
}
