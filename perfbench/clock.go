package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's clock is the CPU time the whole process has used, read
// with clock_gettime(CLOCK_PROCESS_CPUTIME_ID). The run is pinned to one
// scheduler thread (see run), and every timed operation keeps that thread
// busy, so on an idle host the clock advances with wall time; on a shared
// host it leaves out the time other processes, or the hypervisor, held the
// CPU. The cancel phase alone is timed on the wall clock (see cancelPhase).
const clockProcessCPUTime = 2

// now reads the benchmark's clock.
func now() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// since is the clock's advance from t0.
func since(t0 time.Duration) time.Duration { return now() - t0 }
