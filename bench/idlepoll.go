package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Every latency this benchmark measures is a chain of wake-ups, and in a
// virtual machine waking a halted vCPU goes through the hypervisor. What
// that costs is set by the load of the host, not by this repository's code:
// in ten pairs of runs taken by turns on the 2-vCPU sandbox the 8 KiB wire
// read took 108–165 us (run-to-run spread 0.29) with the vCPUs allowed to
// halt and 79–105 us (0.15) when they were not; the in-process read
// 7.9–12.3 us (0.28) against 7.8–8.9 us (0.06). README.md has the table. So a
// run keeps the vCPUs awake the way booting with idle=poll would: a helper
// process spins one SCHED_IDLE thread per CPU. Such a thread runs only when
// the CPU would otherwise idle and is preempted the moment anything else
// wakes, so it takes no time from the system under test. A wake-up still
// costs the guest kernel's scheduling and the switch away from the spinner;
// what is gone is the hypervisor's share, and with it the sandbox's share of
// the in-process to mesh gap (README.md says by how much).

// spinEnv marks a re-exec of this binary as the idle-poll helper.
const spinEnv = "TDP_BENCH_IDLEPOLL"

// serveIdlePoll is the helper: spin one idle-priority thread per CPU, write
// one byte to standard output once all of them spin, and stay until standard
// input closes, which it does when the parent ends, however it ends.
func serveIdlePoll() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never yield; leave a P for the waits below
	started := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			err := setIdlePriority()
			started <- err
			if err != nil {
				return
			}
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-started; err != nil {
			fmt.Fprintln(os.Stderr, "bench idle-poll helper:", err)
			return 1
		}
	}
	if _, err := os.Stdout.Write([]byte{1}); err != nil {
		return 1
	}
	io.Copy(io.Discard, os.Stdin)
	return 0
}

// startIdlePoll starts the helper and waits until it says that it spins.
// stop ends it and waits for it to have ended. Where the helper cannot
// lower its threads to SCHED_IDLE (a sandbox that refuses the call) ok is
// false and the run goes on without it: its numbers are valid
// but not comparable with numbers taken with the helper, so the results
// file records which it was and -compare refuses to mix the two.
func startIdlePoll() (stop func(), ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spinEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, false, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	var ready [1]byte
	_, readErr := io.ReadFull(stdout, ready[:]) // EOF: the helper gave up and said why
	return func() {
		stdin.Close()
		cmd.Wait()
	}, readErr == nil, nil
}

// setIdlePriority moves the calling OS thread to SCHED_IDLE: it runs only
// when nothing else wants the CPU and any waking task preempts it at once.
// The syscall package has no wrapper for sched_setscheduler, hence the raw
// call. Linux only, as the benchmark is.
func setIdlePriority() error {
	const schedIdle = 5
	var param [4]byte // struct sched_param{ sched_priority: 0 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return e
	}
	return nil
}
