//go:build !linux

package ir_test

import "time"

var epoch = time.Now()

// threadCPU falls back to the wall clock where no thread CPU clock is read.
func threadCPU() time.Duration { return time.Since(epoch) }
