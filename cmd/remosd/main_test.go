package main

import (
	"reflect"
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
			lim: remosd.Limits{Rate: 50, Burst: 100, MaxConcurrent: 8, MaxWatches: 4, Priority: "interactive"}},
		{in: "crawler::::::batch", id: "crawler", lim: remosd.Limits{Priority: "batch"}},
		{in: "solo", id: "solo"},
		{in: "metered::0.5:2", id: "metered", lim: remosd.Limits{Rate: 0.5, Burst: 2}},
		{in: "", bad: true},
		{in: ":key", bad: true},
		{in: "x:k:notanumber", bad: true},
		{in: "x:k:1:2:3:4:interactive:extra", bad: true},
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

func TestParseFlagsSetsFields(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-qcache-ttl", "0", "-snapshot-stale", "2s", "-tenant", "app:sekrit:50",
		"-anon-limits", "5:10", "-domains", "2", "-domain", "1", "-peer", "127.0.0.1:4569",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueryCacheTTL != 0 || cfg.SnapshotStale != 2*time.Second ||
		cfg.Tenants["app"] != (remosd.Tenant{Key: "sekrit", Limits: remosd.Limits{Rate: 50}}) ||
		cfg.Anonymous == nil || *cfg.Anonymous != (remosd.Limits{Rate: 5, Burst: 10}) ||
		cfg.Domains != 2 || cfg.Domain != 1 || !reflect.DeepEqual(cfg.FedPeers, []string{"127.0.0.1:4569"}) {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-peer", "127.0.0.1:4569"}); err == nil {
		t.Fatal("-peer accepted without federated mode")
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
