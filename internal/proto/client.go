package proto

import (
	"context"
	"fmt"
	"strings"

	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/watch"
)

// Client is what both protocol clients are: a collector, a FLOWS asker
// and a WATCH subscriber.
type Client interface {
	collector.Interface
	Flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, error)
	Watch(ctx context.Context, spec watch.Spec) (<-chan watch.Update, error)
}

// Identity is who a client says it is to a server's admission layer: a
// tenant id and key, and a default queue tier ("interactive", "batch",
// or "" for the tenant's configured one). The zero Identity is
// anonymous.
type Identity struct {
	Tenant, Key, Priority string
}

// NewClient turns a target into a protocol client carrying id.
// "tcp://host:port", or a bare "host:port", speaks the ASCII protocol;
// "http://..." and "https://..." speak the XML protocol. No connection is
// made until the first request.
func NewClient(target string, id Identity) (Client, error) {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		return &HTTPClient{
			BaseURL: strings.TrimSuffix(target, "/"),
			Tenant:  id.Tenant, TenantKey: id.Key, Priority: id.Priority,
		}, nil
	}
	addr := strings.TrimPrefix(target, "tcp://")
	if addr == "" {
		return nil, fmt.Errorf("proto: empty target")
	}
	if strings.Contains(addr, "://") {
		return nil, fmt.Errorf("proto: unsupported scheme in target %q (want tcp:// or http://)", target)
	}
	return &TCPClient{Addr: addr, Tenant: id.Tenant, TenantKey: id.Key, Priority: id.Priority}, nil
}
