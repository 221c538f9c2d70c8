// Package libc simulates the application–library interface that AFEX
// injects faults into.
//
// The paper uses LFI to interpose on calls from a real binary to the C
// standard library and fail a chosen call with a chosen error return and
// errno. This repository replaces the binary with a program model (package
// prog) whose operations call into this simulated libc. The simulation
// keeps what matters to the exploration algorithm:
//
//   - a registry of library functions, each with a fault profile (the set
//     of plausible error return values and errno codes) — the output
//     LFI's callsite analyzer produces from libc.so;
//   - the addressing of an injection point as ⟨function, callNumber⟩: the
//     n-th call one execution makes to a function. The counting and the
//     interposition themselves are part of the interpreter (package prog),
//     which consults the armed plan on every call it simulates.
package libc

import "sort"

// ErrorReturn is one way a library function can fail: the value it
// returns and the errno it sets.
type ErrorReturn struct {
	Retval int
	Errno  string
}

// Profile is the fault profile of one library function: its name, the
// ways it can fail, and a coarse functional class used by statistical
// environment models (§5 "Practical Relevance", §7.5).
type Profile struct {
	Name   string
	Errors []ErrorReturn
	Class  Class
}

// Class partitions library functions by functionality. The paper's §2
// notes that grouping POSIX functions by functionality (file, networking,
// memory, ...) is a natural total order for the function axis; adjacent
// functions then tend to be related, which is exactly the similarity the
// Gaussian mutation exploits.
type Class int

// Function classes, ordered so that sorting by class produces the
// functionality-grouped function axis.
const (
	ClassMemory Class = iota
	ClassFile
	ClassDir
	ClassNet
	ClassProcess
	ClassLocale
	ClassMisc
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMemory:
		return "memory"
	case ClassFile:
		return "file"
	case ClassDir:
		return "dir"
	case ClassNet:
		return "net"
	case ClassProcess:
		return "process"
	case ClassLocale:
		return "locale"
	default:
		return "misc"
	}
}

// registry holds the simulated libc's fault profiles, keyed by function
// name. It is populated at init time and immutable afterwards.
var registry = map[string]*Profile{}

func register(name string, class Class, errs ...ErrorReturn) {
	if _, dup := registry[name]; dup {
		panic("libc: duplicate registration of " + name)
	}
	registry[name] = &Profile{Name: name, Errors: errs, Class: class}
}

func init() {
	neg1 := func(errnos ...string) []ErrorReturn {
		out := make([]ErrorReturn, len(errnos))
		for i, e := range errnos {
			out[i] = ErrorReturn{Retval: -1, Errno: e}
		}
		return out
	}
	null := func(errnos ...string) []ErrorReturn {
		out := make([]ErrorReturn, len(errnos))
		for i, e := range errnos {
			out[i] = ErrorReturn{Retval: 0, Errno: e} // NULL pointer return
		}
		return out
	}

	// Memory management. NULL returns with ENOMEM.
	register("malloc", ClassMemory, null("ENOMEM")...)
	register("calloc", ClassMemory, null("ENOMEM")...)
	register("realloc", ClassMemory, null("ENOMEM")...)
	register("strdup", ClassMemory, null("ENOMEM")...)
	register("mmap", ClassMemory, neg1("ENOMEM", "EACCES")...)
	register("munmap", ClassMemory, neg1("EINVAL")...)

	// File I/O.
	register("open", ClassFile, neg1("EACCES", "ENOENT", "EMFILE", "EINTR", "ENOSPC")...)
	register("open64", ClassFile, neg1("EACCES", "ENOENT", "EMFILE")...)
	register("fopen", ClassFile, null("EACCES", "ENOENT", "EMFILE")...)
	register("fopen64", ClassFile, null("EACCES", "ENOENT", "EMFILE")...)
	register("close", ClassFile, neg1("EIO", "EINTR", "EBADF")...)
	register("fclose", ClassFile, neg1("EIO", "EBADF")...)
	register("read", ClassFile, neg1("EIO", "EINTR", "EAGAIN")...)
	register("write", ClassFile, neg1("EIO", "EINTR", "ENOSPC", "EAGAIN")...)
	register("pread", ClassFile, neg1("EIO", "EINTR")...)
	register("pwrite", ClassFile, neg1("EIO", "ENOSPC")...)
	register("fgets", ClassFile, null("EIO")...)
	register("putc", ClassFile, neg1("EIO")...)
	register("__IO_putc", ClassFile, neg1("EIO")...)
	register("fflush", ClassFile, neg1("EIO", "ENOSPC")...)
	register("fsync", ClassFile, neg1("EIO")...)
	register("ftruncate", ClassFile, neg1("EIO", "EINVAL")...)
	register("lseek", ClassFile, neg1("EINVAL", "ESPIPE")...)
	register("stat", ClassFile, neg1("ENOENT", "EACCES")...)
	register("__xstat64", ClassFile, neg1("ENOENT", "EACCES")...)
	register("fstat", ClassFile, neg1("EBADF")...)
	register("unlink", ClassFile, neg1("ENOENT", "EACCES", "EBUSY")...)
	register("rename", ClassFile, neg1("EACCES", "EXDEV", "ENOSPC")...)
	register("ferror", ClassFile, []ErrorReturn{{Retval: 1, Errno: ""}}...)
	register("fcntl", ClassFile, neg1("EACCES", "EAGAIN", "EINVAL")...)
	register("dup", ClassFile, neg1("EMFILE")...)
	register("pipe", ClassFile, neg1("EMFILE", "ENFILE")...)

	// Directories.
	register("opendir", ClassDir, null("EACCES", "ENOENT", "EMFILE")...)
	register("readdir", ClassDir, null("EBADF")...)
	register("closedir", ClassDir, neg1("EBADF")...)
	register("chdir", ClassDir, neg1("EACCES", "ENOENT")...)
	register("mkdir", ClassDir, neg1("EACCES", "EEXIST", "ENOSPC")...)
	register("rmdir", ClassDir, neg1("EACCES", "ENOTEMPTY")...)
	register("getcwd", ClassDir, null("ERANGE", "EACCES")...)

	// Networking.
	register("socket", ClassNet, neg1("EMFILE", "ENOBUFS", "EACCES")...)
	register("bind", ClassNet, neg1("EADDRINUSE", "EACCES")...)
	register("listen", ClassNet, neg1("EADDRINUSE")...)
	register("accept", ClassNet, neg1("EAGAIN", "EMFILE", "ECONNABORTED", "EINTR")...)
	register("connect", ClassNet, neg1("ECONNREFUSED", "ETIMEDOUT", "EINTR")...)
	register("send", ClassNet, neg1("ECONNRESET", "EPIPE", "EINTR", "EAGAIN")...)
	register("recv", ClassNet, neg1("ECONNRESET", "EINTR", "EAGAIN")...)
	register("select", ClassNet, neg1("EINTR", "EBADF")...)
	register("setsockopt", ClassNet, neg1("EINVAL", "ENOPROTOOPT")...)

	// Process / resources / time.
	register("wait", ClassProcess, neg1("ECHILD", "EINTR")...)
	register("fork", ClassProcess, neg1("EAGAIN", "ENOMEM")...)
	register("getrlimit64", ClassProcess, neg1("EINVAL")...)
	register("setrlimit64", ClassProcess, neg1("EINVAL", "EPERM")...)
	register("clock_gettime", ClassProcess, neg1("EINVAL")...)
	register("pthread_mutex_lock", ClassProcess, []ErrorReturn{{Retval: 35, Errno: "EDEADLK"}}...)
	register("pthread_mutex_unlock", ClassProcess, []ErrorReturn{{Retval: 1, Errno: "EPERM"}}...)

	// Locale / misc.
	register("setlocale", ClassLocale, null("ENOENT")...)
	register("bindtextdomain", ClassLocale, null("ENOMEM")...)
	register("textdomain", ClassLocale, null("ENOMEM")...)
	register("strtol", ClassMisc, []ErrorReturn{{Retval: 0, Errno: "ERANGE"}}...)
	register("getenv", ClassMisc, null("")...)
}

// Lookup returns the fault profile for the named function, or nil if the
// simulated libc does not provide it.
func Lookup(name string) *Profile { return registry[name] }

// Functions returns all registered function names sorted first by class
// (the functionality grouping of §2) and then alphabetically within a
// class. This is the canonical total order ≺ for function axes.
func Functions() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := registry[names[i]], registry[names[j]]
		if pi.Class != pj.Class {
			return pi.Class < pj.Class
		}
		return names[i] < names[j]
	})
	return names
}
