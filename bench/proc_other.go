//go:build !linux

package main

import "os/exec"

// setParentDeathSignal is a Linux facility; elsewhere cleanup relies on the
// harness's own deferred stops and signal handler.
func setParentDeathSignal(*exec.Cmd) {}
