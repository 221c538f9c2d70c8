package explore

// The strategy registry: exploration algorithms are constructed by name
// through one extensible factory table, so every layer that selects an
// algorithm — core.Config.Algorithm, the afex CLI, the distributed
// coordinator — shares a single list of valid names and a single error
// message when a name is unknown.
//
// Decorators compose around a registered strategy in one documented
// order:
//
//	strategy → Sharded → Novel
//
// i.e. the innermost layer is the registered search algorithm, Sharded
// (when Config.Shards > 1) partitions the space and runs one instance of
// the strategy per disjoint region, and Novel (when prior-run scenario
// keys exist) filters the composed explorer so nothing executes twice
// across runs. Sharding therefore composes with every registered
// strategy, and the novelty filter sees candidates in parent-space
// coordinates regardless of sharding.

import (
	"fmt"
	"sort"
	"strings"

	"afex/internal/faultspace"
	"afex/internal/xrand"
)

// Strategy constructs an explorer over a fault space. Registered
// strategies must be deterministic functions of (space, cfg): equal
// inputs yield explorers that generate identical candidate streams under
// identical feedback.
type Strategy func(space *faultspace.Union, cfg Config) (Explorer, error)

// registry maps canonical strategy names (plus aliases) to factories.
// It is populated at init time and never mutated afterwards except
// through Register, which callers do during their own init.
var registry = map[string]Strategy{}

// aliases maps alternate spellings to canonical names; they resolve in
// New but are not listed by Strategies.
var aliases = map[string]string{
	"fitness-guided": "fitness",
}

// Register adds a strategy under name. Registering a duplicate name
// panics: the registry is assembled at init time, where a collision is a
// programming error, not a runtime condition.
func Register(name string, s Strategy) {
	if name == "" || s == nil {
		panic("explore: Register with empty name or nil strategy")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("explore: strategy %q registered twice", name))
	}
	registry[name] = s
}

// Strategies returns the sorted canonical names of every registered
// strategy — the list a CLI should print and error messages embed.
func Strategies() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs an explorer by algorithm name. Unknown names return an
// error naming every valid choice, so misconfigurations surface at
// session construction instead of as a nil explorer downstream.
func New(name string, space *faultspace.Union, cfg Config) (Explorer, error) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("explore: unknown algorithm %q (valid: %s)",
			name, strings.Join(Strategies(), ", "))
	}
	return s(space, cfg)
}

func init() {
	Register("fitness", func(space *faultspace.Union, cfg Config) (Explorer, error) {
		return NewFitnessGuided(space, cfg), nil
	})
	Register("random", func(space *faultspace.Union, cfg Config) (Explorer, error) {
		return NewRandom(space, cfg.Seed), nil
	})
	Register("exhaustive", func(space *faultspace.Union, cfg Config) (Explorer, error) {
		return NewExhaustive(space), nil
	})
	Register("genetic", func(space *faultspace.Union, cfg Config) (Explorer, error) {
		return NewGenetic(space, cfg.Seed), nil
	})
	Register("portfolio", func(space *faultspace.Union, cfg Config) (Explorer, error) {
		return NewPortfolio(space, cfg), nil
	})
}

// armSeedBase offsets the portfolio's per-arm sub-stream ids away from
// the sharded explorer's per-shard ids (0, 1, 2, …), so an arm inside a
// shard never shares a derived seed with the shard itself.
const armSeedBase int64 = 1 << 32

// armSeed derives arm i's seed from the session seed. Arm 0 keeps the
// base seed so the portfolio's first (fitness) arm explores exactly like
// an unsharded fitness session would.
func armSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return xrand.DeriveSeed(seed, armSeedBase+int64(i))
}

// shardSeed derives shard i's seed from the session seed. Shard 0 of a
// 1-shard session keeps the base seed, matching the unsharded explorer.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return xrand.DeriveSeed(seed, int64(i))
}
