package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on virtual machines with few vCPUs. A vCPU with
// nothing to run halts, and the hypervisor then has to schedule it
// again before the next wake-up inside the guest is served. On a busy
// host that costs milliseconds per wake-up, and how many it costs
// depends on the host's load during the run, not on the system. The
// durable workload is an open loop that leaves the server idle between
// jobs of about 10 ms, so these wake-ups made up most of the difference
// between runs: its job latencies moved by a third from one run to the
// next while CPU per job moved by 5%.
//
// An idle poller keeps the vCPUs out of halt for the whole run: one
// spinning thread per CPU in a child process, each under SCHED_IDLE, so
// the kernel runs it only when no other thread wants that CPU and
// preempts it as soon as one does. Its CPU time is in no metric: it is
// a process of its own, and the reported CPU figures read the system
// under test only.

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// idlePollReady is the line the poller prints once every thread spins.
const idlePollReady = "idle poll on"

// startIdlePoll launches the poller as a child process and waits until
// it runs.
func startIdlePoll(dir string) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p, err := start(dir, "idle-poll", exe, "-idle-poll")
	if err != nil {
		return nil, err
	}
	if _, err := p.waitLine(idlePollReady, 10*time.Second); err != nil {
		p.stop(time.Second)
		return nil, fmt.Errorf("idle poll: %w", err)
	}
	return p, nil
}

// idlePoll is the poller's body: it never returns, and exits non-zero
// if a thread cannot be put under SCHED_IDLE, since spinning at normal
// priority would take CPU from the system under test.
func idlePoll() {
	n := runtime.NumCPU()
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				ready <- e
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: idle poll: SCHED_IDLE:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s: %d threads\n", idlePollReady, n)
	select {}
}
