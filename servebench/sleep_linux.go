package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep until t. The Go timer
// wakes sleepers through the network poller at millisecond granularity,
// which would add up to a millisecond of generator lag to every intended
// send time; the kernel's high-resolution sleep is about ten times finer.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}
