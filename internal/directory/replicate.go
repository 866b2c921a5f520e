package directory

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"remos/internal/obs"
	"remos/internal/sim"
)

// Peer replication: each federated daemon runs its own directory and
// pushes its local registrations to every peer directory, so the mesh
// converges on one view of which master owns which domain without a
// central registry. Conflicts (the same advert name leased from two
// places, or stale copies still circulating) resolve latest-lease-wins
// by sequence number — see Service.ReplicaApply.

// Replicate pushes one advert to the remote directory under
// latest-lease-wins, reporting whether the peer applied it.
func (c *Client) Replicate(a Advert, ttl time.Duration) (applied bool, err error) {
	if a.Endpoint == "" {
		return false, fmt.Errorf("directory: replication requires an endpoint")
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	err = c.exchange(func(conn net.Conn, r *bufio.Reader) error {
		bench, domain := "-", a.Domain
		if a.BenchHost.IsValid() {
			bench = a.BenchHost.String()
		}
		if domain == "" {
			domain = "-"
		}
		bw := bufio.NewWriter(conn)
		fmt.Fprintf(bw, "REPLICATE %s %d %s %s %s %d %d %d %d\n",
			a.Name, wireTTL(ttl), a.Endpoint, bench, domain, a.Priority, a.Epoch, a.Seq, len(a.Prefixes))
		for _, p := range a.Prefixes {
			fmt.Fprintln(bw, p.String())
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimSpace(line)
		var flag int
		if _, err := fmt.Sscanf(line, "OK %d", &flag); err != nil {
			return fmt.Errorf("directory: %s", line)
		}
		applied = flag != 0
		return nil
	})
	return applied, err
}

// ReplicatorConfig wires a Replicator.
type ReplicatorConfig struct {
	// Service is the local directory whose endpoint-form adverts are
	// pushed. Required.
	Service *Service
	// Peers are peer directory addresses (host:port).
	Peers []string
	// Sched supplies the clock and the anti-entropy timer. Required.
	Sched sim.Scheduler
	// Interval is the anti-entropy push period (default DefaultTTL/4).
	Interval time.Duration
	// Obs, when set, receives the directory_replication_* metrics.
	Obs *obs.Registry
	// Logf, when set, reports push failures (they are retried on the
	// next round, so failures are logged, never fatal).
	Logf func(format string, args ...any)
}

// Replicator periodically pushes the local directory's remote-reachable
// adverts to every peer. Push-only anti-entropy is enough for a full
// mesh: every daemon pushes its own registrations to all peers, so each
// directory converges on the union, and lease expiry reaps entries
// whose origin stopped refreshing.
type Replicator struct {
	cfg   ReplicatorConfig
	timer *sim.Timer

	mPushes  *obs.Counter
	mApplied *obs.Counter
	mErrors  *obs.Counter
}

// StartReplicator begins anti-entropy on the scheduler's clock. An
// initial push runs on the first tick, not synchronously, so callers
// can finish wiring before traffic flows.
func StartReplicator(cfg ReplicatorConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultTTL / 4
	}
	r := &Replicator{cfg: cfg}
	r.mPushes = cfg.Obs.Counter("remos_directory_replication_pushes_total",
		"advert pushes attempted to peer directories")
	r.mApplied = cfg.Obs.Counter("remos_directory_replication_applied_total",
		"advert pushes the peer applied (not stale-rejected)")
	r.mErrors = cfg.Obs.Counter("remos_directory_replication_errors_total",
		"advert pushes that failed to reach the peer")
	r.timer = cfg.Sched.Every(cfg.Interval, r.Push)
	return r
}

// Push replicates every remote-reachable advert to every peer once.
// Local-handle-only adverts cannot cross the wire and are skipped.
func (r *Replicator) Push() {
	status := r.cfg.Service.Status()
	now := r.cfg.Service.Now()
	for _, peer := range r.cfg.Peers {
		c := &Client{Addr: peer}
		for _, st := range status {
			if st.Endpoint == "" {
				continue
			}
			ttl := st.Expires.Sub(now)
			if ttl <= 0 {
				continue
			}
			r.mPushes.Inc()
			applied, err := c.Replicate(st.Advert, ttl)
			if err != nil {
				r.mErrors.Inc()
				if r.cfg.Logf != nil {
					r.cfg.Logf("directory: replicate %q to %s: %v", st.Name, peer, err)
				}
				break // peer down: skip its remaining adverts this round
			}
			if applied {
				r.mApplied.Inc()
			}
		}
	}
}

// Close stops the anti-entropy timer.
func (r *Replicator) Close() {
	if r.timer != nil {
		r.timer.Stop()
	}
}
