//go:build unix && !linux

package backend

import "syscall"

// dieWithSupervisor is a no-op where the kernel has no parent-death
// signal: a fixture outlives a supervisor killed outright.
func dieWithSupervisor(*syscall.SysProcAttr) {}
