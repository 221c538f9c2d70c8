// Command faultmap renders a Fig. 1-style fault-space map for any built-in
// target: rows are tests, columns are libc functions, and a '#' marks a
// ⟨test, function⟩ pair where failing the callNumber-th call to the
// function makes the test fail ('@' marks a crash). The visible striping
// is the fault-space structure the AFEX search algorithm exploits.
//
// Usage:
//
//	faultmap [--target coreutils] [--module ls] [--funcs 19] [--call 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"afex"
	"afex/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "faultmap:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse args, render the map
// to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faultmap", flag.ContinueOnError)
	targetName := fs.String("target", "coreutils", "target system under test")
	module := fs.String("module", "", "restrict rows to tests of this module (e.g. \"ls\")")
	nFuncs := fs.Int("funcs", 19, "number of functions (columns)")
	call := fs.Int("call", 1, "call number to fail")
	if err := fs.Parse(args); err != nil {
		return err
	}

	target, err := afex.Target(*targetName)
	if err != nil {
		return err
	}
	m := experiments.FaultMapFor(target, *module, *nFuncs, *call)
	fmt.Fprintf(w, "fault map of %s (call #%d; '#' test failure, '@' crash, '.' no failure)\n", m.Target, m.Call)
	for j, fn := range m.Functions {
		fmt.Fprintf(w, "  col %2d: %s\n", j, fn)
	}
	for i, name := range m.TestNames {
		row := make([]byte, len(m.Functions))
		for j := range row {
			switch {
			case m.Crash[i][j]:
				row[j] = '@'
			case m.Fail[i][j]:
				row[j] = '#'
			default:
				row[j] = '.'
			}
		}
		fmt.Fprintf(w, "%-28s %s\n", name, row)
	}
	return nil
}
