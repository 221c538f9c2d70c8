//go:build unix

package backend

import (
	"os/exec"
	"syscall"
)

// isolateProcessGroup makes the fixture the leader of a fresh process
// group, so a timeout kill can reap helpers it spawned, not only the
// direct child, and has it die with its supervisor where the kernel
// allows (dieWithSupervisor).
func isolateProcessGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	dieWithSupervisor(cmd.SysProcAttr)
}

// killTree SIGKILLs the fixture's whole process group (fall back to
// the direct child if the group signal fails — e.g. the leader already
// exited and the group is gone).
func killTree(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err != nil {
		_ = cmd.Process.Kill()
	}
}
