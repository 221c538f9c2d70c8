// Command leaky is a worker-mode fixture whose helpers outlive it: on an
// injected fault it hands its report pipe to a `sleep` and then either
// dies on SIGKILL (test 0, the planted crash) or blocks forever (test 1,
// the planted hang). The pipe therefore reaches EOF only when the helper
// goes — by itself long after the supervisor's timeout, or with the
// process group a timeout kill takes down. Fault-free it exits 0.
package main

import (
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"afex/shim"
)

func main() {
	test := 0
	if len(os.Args) > 1 {
		test, _ = strconv.Atoi(os.Args[1])
	}
	shim.Serve(test, run)
}

func run(test int) int {
	shim.Cover(1)
	if _, _, failed := shim.Call("malloc"); !failed {
		return 0
	}
	fd, err := strconv.Atoi(os.Getenv(shim.ReportFDEnv))
	if err != nil {
		return 3
	}
	helper := exec.Command("sleep", "4")
	helper.ExtraFiles = []*os.File{os.NewFile(uintptr(fd), "report")}
	if err := helper.Start(); err != nil {
		return 3
	}
	if test == 0 {
		shim.Crash("leaky/pipe-held")
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	time.Sleep(time.Hour)
	return 0
}
