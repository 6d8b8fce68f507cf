package ir_test

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads the calling thread's CPU clock, which advances only while
// the thread runs, so time the scheduler gives to other processes does not
// count. The caller holds its goroutine on one thread (runtime.LockOSThread).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
