package backend

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"afex/shim"
)

// supervisorEnv makes the test binary a supervisor of the fixture it
// names (superviseHang).
const supervisorEnv = "AFEX_TEST_SUPERVISE_HANG"

func init() {
	if bin := os.Getenv(supervisorEnv); bin != "" {
		superviseHang(bin)
	}
}

// superviseHang is the test binary as a supervisor: it spawns a warm
// worker of bin, arms crashy's planted hang on it, prints the worker's
// pid once the hang's fault is injected, and waits to be killed. It never
// returns.
func superviseHang(bin string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "supervisor:", err)
		os.Exit(2)
	}
	spec, err := ParseSpec("cmd:" + bin + " {test}")
	if err != nil {
		fail(err)
	}
	r, err := New(Process, Config{Command: spec, Timeout: time.Hour, Procs: 1})
	if err != nil {
		fail(err)
	}
	p := r.(*workerRunner).pool
	w, err := p.spawn(hangTest)
	if err != nil {
		fail(err)
	}
	if w.armGroup([]Test{hangTest}) != 1 {
		fail(fmt.Errorf("arming the hang failed"))
	}
	var ev shim.Event
	for nextEvent(w.rd, &ev) == nil {
		if ev.Kind == shim.EventInject {
			fmt.Println(w.cmd.Process.Pid)
			time.Sleep(time.Hour)
		}
	}
	fail(fmt.Errorf("the worker ended before its hang"))
}

// TestFixtureDiesWithItsSupervisor: a supervisor SIGKILLed while a warm
// worker sits in crashy's planted hang takes the kill timer that would
// have ended it along; the worker must not live on under PID 1.
func TestFixtureDiesWithItsSupervisor(t *testing.T) {
	sup := exec.Command(os.Args[0], "-test.run=^$")
	sup.Env = append(os.Environ(), supervisorEnv+"="+crashyBin)
	out, err := sup.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Wait()
	defer sup.Process.Kill()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("the supervisor printed no pid: %v", err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	if !alive(pid) {
		t.Fatalf("fixture %d is not running inside its hang", pid)
	}
	sup.Process.Kill()
	sup.Wait()
	for deadline := time.Now().Add(time.Second); alive(pid); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("fixture %d outlived its SIGKILLed supervisor by a second", pid)
		}
	}
}

// alive reports whether pid is a process that has not exited: one
// that exists and is not a zombie waiting for its new parent to reap it.
func alive(pid int) bool {
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return false
	}
	// The state follows the parenthesized command name.
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] != 'Z' && stat[i+2] != 'X'
}
