package remosd

import (
	"errors"
	"net"
	"syscall"
	"testing"
)

// StartFederatedPair starts two daemons from base serving the two
// domains of a federated split, each peering the other's directory, and
// closes both when the test ends. A directory listener's address must be
// known before its peer starts, so each is reserved by closing a probe
// listener on a free port; another test can take that port before the
// daemon binds it. A pair whose Start fails with EADDRINUSE is closed
// and started again on fresh addresses, a bounded number of times.
// Exported for the package's external tests.
func StartFederatedPair(t *testing.T, base Config) [2]*Daemon {
	t.Helper()
	for attempt := 1; ; attempt++ {
		dirs := [2]string{freeAddr(t), freeAddr(t)}
		var pair [2]*Daemon
		var err error
		for domain := range pair {
			cfg := base
			cfg.Domains, cfg.Domain = 2, domain
			cfg.ListenDirectory, cfg.FedPeers = dirs[domain], []string{dirs[1-domain]}
			if pair[domain], err = cfg.Start(); err != nil {
				break
			}
		}
		if err == nil {
			t.Cleanup(func() { pair[0].Close(); pair[1].Close() })
			return pair
		}
		if pair[0] != nil {
			pair[0].Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			t.Fatalf("start a federated pair (attempt %d): %v", attempt, err)
		}
	}
}

// freeAddr picks a loopback address that is free now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
