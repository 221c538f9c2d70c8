package backend

import "syscall"

// dieWithSupervisor has the kernel SIGKILL the fixture when its
// supervisor dies: a supervisor killed outright takes the kill timer of a
// hung fixture with it, and the fixture, in its own process group, would
// otherwise live on under PID 1. The signal follows the thread that
// forked the child, which the Go runtime keeps for the life of the
// process, since nothing here locks a goroutine to its thread.
func dieWithSupervisor(attr *syscall.SysProcAttr) {
	attr.Pdeathsig = syscall.SIGKILL
}
