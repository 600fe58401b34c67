package main

import "syscall"

// childAttr makes the kernel SIGKILL a daemon when the benchmark process
// dies, so even a hard kill of the benchmark leaves no orphan holding a
// port for the next run to mistake for its own.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
