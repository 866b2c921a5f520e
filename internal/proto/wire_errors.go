package proto

import (
	"context"
	"errors"
	"net"

	"remos/internal/rerr"
)

// errorCodeHeader carries the wire error code on the XML/HTTP protocol;
// the ASCII protocol puts the same code as the first token of its ERR
// line. Either way the class of a failure survives the process boundary.
const errorCodeHeader = "X-Remos-Error-Code"

// remoteError marks a failure reported by the remote collector, as
// opposed to a failure reaching it, so the client-side classifier
// leaves its (already decoded) classification alone.
type remoteError struct{ err error }

func (r *remoteError) Error() string { return r.err.Error() }
func (r *remoteError) Unwrap() error { return r.err }

// decodeRemoteError rebuilds a remote failure from its wire code and
// message. An empty or unknown code decodes unclassified, which is how
// responses from older peers come through.
func decodeRemoteError(code, msg string) error {
	return &remoteError{err: rerr.FromCode(code, msg)}
}

// isRemote reports whether err is, or wraps, a remoteError. The target
// escapes through errors.As, so it is made here, where only a failed
// exchange asks.
func isRemote(err error) bool {
	var rem *remoteError
	return errors.As(err, &rem)
}

// classifyClientErr shapes a client-side query failure: remote errors
// keep the classification decoded off the wire, context errors pass
// through untouched, network timeouts gain the TIMEOUT class, and
// anything else that prevented the exchange (connection refused, reset,
// unreachable) is the UNAVAILABLE class.
func classifyClientErr(name string, err error) error {
	if err == nil {
		return nil
	}
	if isRemote(err) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return rerr.Tagf(rerr.ErrTimeout, "proto: %s: %w", name, err)
	}
	return rerr.Tagf(rerr.ErrCollectorUnavailable, "proto: %s: %w", name, err)
}
