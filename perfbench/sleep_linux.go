package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread for d with nanosleep(2). The open-loop
// pacer sleeps tens of microseconds at a time; time.Sleep rounds a sleep
// under a millisecond up to at least one when the process is otherwise
// idle, which delivered packets in bursts about a millisecond late, by an
// amount that moved with the host's timer wake-ups. nanosleep wakes within
// the kernel's timer slack, and unlike a spin leaves the CPU idle.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
