package main

import (
	"flag"
	"reflect"
	"slices"
	"testing"
	"time"

	"remos/remosd"
)

func TestParseTenantSpec(t *testing.T) {
	cases := []struct {
		in      string
		id, key string
		lim     remosd.Limits
		bad     bool
	}{
		{in: "app:sekrit:50:100:8:4:interactive", id: "app", key: "sekrit",
			lim: remosd.Limits{Rate: 50, Burst: 100, MaxConcurrent: 8, MaxWatches: 4, Tier: remosd.Interactive}},
		{in: "crawler::::::batch", id: "crawler", lim: remosd.Limits{Tier: remosd.Batch}},
		{in: "solo", id: "solo"},
		{in: "metered::0.5:2", id: "metered", lim: remosd.Limits{Rate: 0.5, Burst: 2}},
		{in: "", bad: true},
		{in: ":key", bad: true},
		{in: "x:k:notanumber", bad: true},
		{in: "x:k:1:2:3:4:interactive:extra", bad: true},
		{in: "x::::::urgent", bad: true},
	}
	for _, c := range cases {
		id, key, lim, err := parseTenantSpec(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("parseTenantSpec(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseTenantSpec(%q): %v", c.in, err)
			continue
		}
		if id != c.id || key != c.key || lim != c.lim {
			t.Errorf("parseTenantSpec(%q) = %q, %q, %+v", c.in, id, key, lim)
		}
	}
}

// TestEmptyCommandLineIsDefaultConfig: the flags read their defaults
// from DefaultConfig, so the two cannot drift apart. Logf is main's to
// set and stays nil here.
func TestEmptyCommandLineIsDefaultConfig(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := remosd.DefaultConfig(); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("empty command line = %+v\nDefaultConfig   = %+v", cfg, want)
	}
}

// everyFlag sets each flag to a value other than its default; -domains
// is 2 so that -peer and -fed-priority parse.
var everyFlag = map[string]string{
	"listen": "127.0.0.1:1", "http": "127.0.0.1:2", "dir": "127.0.0.1:3",
	"hostload": "127.0.0.1:4", "obs": "127.0.0.1:5",
	"scenario": "campus", "parallelism": "3", "max-stale": "3s",
	"sched-interval": "2s", "bench-interval": "4s",
	"tenant": "app:sekrit:50", "anon-limits": "5:10", "max-queue-wait": "250ms",
	"domains": "2", "domain": "1", "peer": "127.0.0.1:4569", "fed-priority": "1",
	"fed-refresh": "2s", "fed-lease": "5s",
}

// changedFields names the exported Config fields, Logf aside, in which
// cfg differs from DefaultConfig.
func changedFields(cfg remosd.Config) []string {
	def := reflect.ValueOf(remosd.DefaultConfig())
	got := reflect.ValueOf(cfg)
	var out []string
	for i := 0; i < got.NumField(); i++ {
		f := got.Type().Field(i)
		if f.IsExported() && f.Name != "Logf" && !reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
			out = append(out, f.Name)
		}
	}
	return out
}

// TestEveryFlagBindsOneField holds the command line and Config to one
// surface: everyFlag names every flag remosd defines, each one alone
// changes exactly one field (beside the -domains 2 that -peer and
// -fed-priority need), and all of them together change every exported
// field but Logf.
func TestEveryFlagBindsOneField(t *testing.T) {
	cfg := remosd.DefaultConfig()
	defined := 0
	bindFlags(&cfg).VisitAll(func(f *flag.Flag) {
		defined++
		if _, ok := everyFlag[f.Name]; !ok {
			t.Errorf("flag -%s is not in everyFlag", f.Name)
		}
	})
	if defined != len(everyFlag) {
		t.Errorf("remosd defines %d flags, everyFlag sets %d", defined, len(everyFlag))
	}

	var all []string
	for name, value := range everyFlag {
		args := []string{"-" + name, value}
		all = append(all, args...)
		if name == "peer" || name == "fed-priority" {
			args = append(args, "-domains", everyFlag["domains"])
		}
		cfg, err := parseFlags(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		changed := changedFields(cfg)
		if len(args) > 2 {
			changed = slices.DeleteFunc(changed, func(f string) bool { return f == "Domains" })
		}
		if len(changed) != 1 {
			t.Errorf("-%s %s changes %v, want one field", name, value, changed)
		}
	}

	cfg, err := parseFlags(all)
	if err != nil {
		t.Fatal(err)
	}
	changed := changedFields(cfg)
	want := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(cfg)) {
		if f.IsExported() && f.Name != "Logf" {
			want++
		}
	}
	if len(changed) != want {
		t.Fatalf("every flag set changes %d of the %d fields: %v", len(changed), want, changed)
	}
}

func TestParseFlagsSetsFields(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-max-stale", "3s", "-tenant", "app:sekrit:50",
		"-anon-limits", "5:10", "-domains", "2", "-domain", "1", "-peer", "127.0.0.1:4569",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxStale != 3*time.Second ||
		cfg.Tenants["app"] != (remosd.Tenant{Key: "sekrit", Limits: remosd.Limits{Rate: 50}}) ||
		cfg.Anonymous == nil || *cfg.Anonymous != (remosd.Limits{Rate: 5, Burst: 10}) ||
		cfg.Domains != 2 || cfg.Domain != 1 || !reflect.DeepEqual(cfg.FedPeers, []string{"127.0.0.1:4569"}) {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-peer", "127.0.0.1:4569"}); err == nil {
		t.Fatal("-peer accepted without federated mode")
	}
	if _, err := parseFlags([]string{"-anon-limits", "x"}); err == nil {
		t.Fatal("bad -anon-limits accepted")
	}
}

func TestParseAnonSpec(t *testing.T) {
	lim, err := parseAnonSpec("5:10:2:1")
	if err != nil {
		t.Fatal(err)
	}
	want := remosd.Limits{Rate: 5, Burst: 10, MaxConcurrent: 2, MaxWatches: 1}
	if lim != want {
		t.Fatalf("parseAnonSpec = %+v, want %+v", lim, want)
	}
}
