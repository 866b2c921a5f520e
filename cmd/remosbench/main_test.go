package main

import "testing"

// TestCommandSurface pins what remosbench is: every listed exhibit runs
// (here at a tiny size), and nothing else does — in particular not the
// serving scenarios, which bench/ measures.
func TestCommandSurface(t *testing.T) {
	for _, name := range order {
		if code := run([]string{"-maxn", "8", "-trials", "2", "-runs", "2", name}); code != 0 {
			t.Errorf("remosbench %s: exit %d, want 0", name, code)
		}
	}
	for _, args := range [][]string{{"serve"}, {"shed"}, {"scale"}, {"fed"}, {"fig12"}, {}, {"fig3", "fig4"}, {"-json", "fig3"}} {
		if code := run(args); code != 2 {
			t.Errorf("remosbench %q: exit %d, want 2", args, code)
		}
	}
}
