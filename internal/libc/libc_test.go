package libc

import (
	"testing"
)

func TestRegistryIntegrity(t *testing.T) {
	funcs := Functions()
	if len(funcs) < 40 {
		t.Fatalf("only %d functions registered; the simulated libc should cover the broad POSIX surface", len(funcs))
	}
	for _, fn := range funcs {
		p := Lookup(fn)
		if p == nil {
			t.Fatalf("Functions lists %q but Lookup fails", fn)
		}
		if p.Name != fn {
			t.Errorf("profile name %q != key %q", p.Name, fn)
		}
		if len(p.Errors) == 0 {
			t.Errorf("%s has no error returns; an uninjectable function is useless to a fault injector", fn)
		}
	}
}

func TestFunctionsGroupedByClass(t *testing.T) {
	funcs := Functions()
	lastClass := Class(-1)
	seen := map[Class]bool{}
	for _, fn := range funcs {
		c := Lookup(fn).Class
		if c != lastClass {
			if seen[c] {
				t.Fatalf("class %v appears in two separate runs; axis order must group by functionality", c)
			}
			seen[c] = true
			lastClass = c
		}
	}
}

func TestFig1FunctionsPresent(t *testing.T) {
	// The functions on Fig. 1's horizontal axis must exist in the
	// simulated libc so the fault map experiment is faithful.
	for _, fn := range []string{
		"wait", "malloc", "calloc", "realloc", "fopen64", "fopen", "fclose",
		"stat", "__xstat64", "ferror", "fcntl", "fgets", "putc", "__IO_putc",
		"read", "opendir", "closedir", "chdir", "pipe", "fflush", "close",
		"getrlimit64", "setrlimit64", "setlocale", "clock_gettime", "getcwd",
		"bindtextdomain", "textdomain", "strtol",
	} {
		if Lookup(fn) == nil {
			t.Errorf("Fig. 1 function %q missing from the simulated libc", fn)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if Lookup("no_such_function") != nil {
		t.Error("Lookup invented a profile")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassMemory: "memory", ClassFile: "file", ClassDir: "dir",
		ClassNet: "net", ClassProcess: "process", ClassLocale: "locale",
		ClassMisc: "misc",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() != "misc" {
		t.Errorf("unknown class should render as misc")
	}
}
