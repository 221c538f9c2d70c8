package backend

// The backend registry: execution backends are constructed by name
// through one extensible factory table, mirroring the exploration
// strategy registry — every layer that selects a backend
// (core.Config.Backend, the afex CLI, rpcnode node managers) shares a
// single list of valid names and a single error message when a name is
// unknown.

import (
	"fmt"
	"sort"
	"strings"
)

// Factory constructs a runner from a validated configuration.
type Factory func(cfg Config) (Runner, error)

// registry maps backend names to factories; populated at init time and
// extended only through Register during a caller's own init.
var registry = map[string]Factory{}

// Register adds a backend under name. Registering a duplicate name
// panics: the registry is assembled at init time, where a collision is
// a programming error, not a runtime condition.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("backend: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: %q registered twice", name))
	}
	registry[name] = f
}

// Names returns the sorted names of every registered backend — the
// valid values of core.Config.Backend.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs a runner by backend name; "" selects Model. Unknown
// names return an error listing every valid choice, so a typo'd
// Config.Backend fails session construction instead of surfacing as a
// nil executor downstream.
func New(name string, cfg Config) (Runner, error) {
	if name == "" {
		name = Model
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("backend: unknown execution backend %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	r, err := f(cfg)
	if err != nil {
		return nil, fmt.Errorf("backend: %s: %w", name, err)
	}
	return r, nil
}

func init() {
	Register(Model, newModel)
	Register(Process, newProcess)
}
