package main

import (
	"os/exec"
	"syscall"
)

// setParentDeathSignal has the kernel kill the child if the harness dies
// without running its own cleanup (SIGKILL, a crash): no orphan servers.
func setParentDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
