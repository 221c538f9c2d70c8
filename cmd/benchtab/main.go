// Command benchtab regenerates every table and figure of the paper's
// evaluation section against the synthetic targets and prints them in the
// paper's layout, annotated with the expected shape. EXPERIMENTS.md is
// the curated record of one such run. Every line is a function of the
// flags except those marked experiments.WallClock.
//
// Usage:
//
//	benchtab [--seed 1] [--reps 3] [--scale 1.0] [--only table3,fig8]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"afex/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(2)
	}
}

// run is the testable body of the command: parse args, print the
// selected experiments to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "base RNG seed")
	reps := fs.Int("reps", 3, "repetitions to average stochastic experiments over")
	scale := fs.Float64("scale", 1.0, "iteration budget multiplier (use <1 for a quick pass)")
	only := fs.String("only", "", "comma-separated subset: fig1,table1,table2,table3,fig8,table4,table5,table6,fig9,scale,ablation,sharding,portfolio")
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := experiments.Opts{Seed: *seed, Reps: *reps, Scale: *scale}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	ran := 0
	show := func(key string, gen func() fmt.Stringer) {
		if len(want) > 0 && !want[key] {
			return
		}
		ran++
		fmt.Fprintln(w, gen().String())
	}

	show("fig1", func() fmt.Stringer { return experiments.Fig1(o) })
	show("table1", func() fmt.Stringer { return experiments.Table1(o) })
	show("table2", func() fmt.Stringer { return experiments.Table2(o) })
	show("table3", func() fmt.Stringer { return experiments.Table3(o) })
	show("fig8", func() fmt.Stringer { return experiments.Fig8(o) })
	show("table4", func() fmt.Stringer { return experiments.Table4(o) })
	show("table5", func() fmt.Stringer { return experiments.Table5(o) })
	show("table6", func() fmt.Stringer { return experiments.Table6(o) })
	show("fig9", func() fmt.Stringer { return experiments.Fig9(o) })
	show("scale", func() fmt.Stringer { return experiments.Scalability(o, nil) })
	show("ablation", func() fmt.Stringer { return experiments.Ablations(o) })
	show("sharding", func() fmt.Stringer { return experiments.Sharding(o, 4) })
	show("portfolio", func() fmt.Stringer { return experiments.Portfolio(o) })

	if ran == 0 {
		return fmt.Errorf("nothing selected (check --only values)")
	}
	return nil
}
