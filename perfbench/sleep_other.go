//go:build !linux

package main

import "time"

// sleepFor sleeps for d; see sleep_linux.go for the precise sleep used on
// Linux.
func sleepFor(d time.Duration) { time.Sleep(d) }
