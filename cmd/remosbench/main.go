// Command remosbench regenerates every table and figure of the paper's
// evaluation section. Each subcommand prints the same rows/series the
// paper reports; "all" runs the full set. Serving performance is not
// measured here: that is BENCHMARK.json and bench/ (see bench/README.md).
//
// Usage:
//
//	remosbench [flags] {fig3|fig4|fig5|fig6|fig7|fig8|fig9|table1|fig10|fig11|all}
//
// Flags:
//
//	-maxn N     largest Fig 3 query size (default 1280, the paper's)
//	-trials N   mirrored-server trials (default 108 good / 72 poor)
//	-runs N     video experiment runs (default 21)
//	-seed N     experiment seed (default 1)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"remos/internal/experiments"
)

// order lists the exhibits as the paper numbers them; "all" runs them
// in this order.
var order = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "fig10", "fig11"}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main with its arguments and exit code made explicit.
func run(args []string) int {
	fs := flag.NewFlagSet("remosbench", flag.ContinueOnError)
	maxN := fs.Int("maxn", 1280, "largest Fig 3 query size")
	trials := fs.Int("trials", 0, "mirrored-server trials (0 = paper defaults)")
	runs := fs.Int("runs", 21, "video experiment runs")
	seed := fs.Int64("seed", 1, "experiment seed")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: remosbench [flags] {%s|all}\n", strings.Join(order, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	cmds := map[string]func() error{
		"fig3": func() error {
			r, err := experiments.Fig3(*maxN)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig4": func() error {
			r, err := experiments.Fig45(2*time.Second, 180*time.Second)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig5": func() error {
			r, err := experiments.Fig45(5*time.Second, 200*time.Second)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig6": func() error {
			r, err := experiments.Fig6(nil)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig7": func() error {
			r, err := experiments.Fig7(nil)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig8": func() error {
			t := *trials
			if t <= 0 {
				t = 108
			}
			r, err := experiments.Mirror(experiments.Fig8Sites, t, 3e6, *seed)
			if err != nil {
				return err
			}
			r.Print(os.Stdout, "Figure 8")
			return nil
		},
		"fig9": func() error {
			t := *trials
			if t <= 0 {
				t = 72
			}
			r, err := experiments.Mirror(experiments.Fig9Sites, t, 3e6, *seed+1)
			if err != nil {
				return err
			}
			r.Print(os.Stdout, "Figure 9")
			return nil
		},
		"table1": func() error {
			r, err := experiments.Table1(24, *seed+2)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig10": func() error {
			r, err := experiments.Fig10(*runs, *seed+3)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
		"fig11": func() error {
			r, err := experiments.Fig11(*seed + 4)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		},
	}

	names := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		names = order
	}
	for _, name := range names {
		fn, ok := cmds[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "remosbench: unknown experiment %q (want %s or all)\n", name, strings.Join(order, ", "))
			return 2
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "remosbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
