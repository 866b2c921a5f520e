package proto

// Tenant identification and admission on both wire protocols.
//
// ASCII grammar (extends the persistent-connection protocol):
//
//	C: TENANT <id> <key> [tier]
//
// The preamble is silent on success — the client pipelines it ahead of
// its first QUERY for zero extra round trips — and answers with the
// shared "ERR UNAUTHENTICATED msg" line (then drops the connection) on
// bad credentials. "-" stands for an empty id or key so every token
// stays non-empty; <tier> is "interactive" or "batch". A server without
// an admission controller accepts any preamble silently, so tenant-
// aware clients interoperate with older daemons.
//
// Shed requests answer with the shared ERR line extended by a
// retry-after hint:
//
//	S: ERR OVERLOADED RETRY=<ms> message
//
// Old clients fold the unknown RETRY= token into the message text; new
// clients surface it via rerr.RetryAfter.
//
// The XML/HTTP protocol carries the same identity as request headers
// (X-Remos-Tenant, X-Remos-Tenant-Key, X-Remos-Priority) and sheds with
// 429 Too Many Requests carrying both the standard Retry-After header
// (whole seconds, rounded up) and X-Remos-Retry-After (milliseconds);
// bad credentials are 401 with the usual X-Remos-Error-Code.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"remos/internal/lines"
	"remos/internal/rerr"
)

// The tenant identification headers on the XML/HTTP protocol.
const (
	tenantHeader     = "X-Remos-Tenant"
	tenantKeyHeader  = "X-Remos-Tenant-Key"
	priorityHeader   = "X-Remos-Priority"
	retryAfterHeader = "X-Remos-Retry-After" // milliseconds
)

// blankToken is the ASCII stand-in for an empty id or key.
const blankToken = "-"

func unblank(tok string) string {
	if tok == blankToken {
		return ""
	}
	return tok
}

// tenant serves one TENANT preamble, resolving the connection's identity
// and default tier. Every failure — malformed line, unknown tier, bad
// credentials — answers with an ERR line and drops the connection: the
// preamble pipelines ahead of the first request, so keeping a connection
// whose preamble was answered with an error would desync the
// request/response pairing.
func (c *asciiConn) tenant(line []byte) (keep bool, err error) {
	var tok [4][]byte // TENANT, id, key, tier; only the id is required
	if n := lines.Split(line, tok[:]); n < 2 || n > len(tok) {
		return false, fmt.Errorf("proto: bad tenant line %q", bytes.TrimSpace(line))
	}
	c.ten, c.tier, err = c.srv.core.identify(unblank(string(tok[1])), unblank(string(tok[2])), string(tok[3]))
	return err == nil, err
}

// preambleLine renders the TENANT line a tenant-configured client sends
// after every fresh dial, or "" when the client carries no identity.
func preambleLine(tenant, key, priority string) string {
	if tenant == "" && key == "" && priority == "" {
		return ""
	}
	id, k := tenant, key
	if id == "" {
		id = blankToken
	}
	if k == "" {
		k = blankToken
	}
	if priority == "" {
		return "TENANT " + id + " " + k + "\n"
	}
	return "TENANT " + id + " " + k + " " + priority + "\n"
}

// maxRetryAfter caps a peer's retry-after hint. A peer may send any
// count, and a count of milliseconds above ~9.2e12 (of seconds above
// ~9.2e9) would overflow time.Duration into a negative or garbage
// backoff; every decoded hint is in [0, maxRetryAfter] instead.
const maxRetryAfter = time.Hour

// retryHint converts a peer's retry-after count of units into a backoff
// in [0, maxRetryAfter]; a count that is not positive is no hint.
func retryHint(n int64, unit time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	if n >= int64(maxRetryAfter/unit) {
		return maxRetryAfter
	}
	return time.Duration(n) * unit
}

// decodeErrLine decodes the tail of an ASCII "ERR " line: an optional
// wire code, an optional RETRY=<ms> hint, then the message. Both
// extensions degrade to message text on old peers.
func decodeErrLine(rest string) error {
	code := ""
	if sp := strings.IndexByte(rest, ' '); sp > 0 && rerr.Known(rest[:sp]) {
		code, rest = rest[:sp], rest[sp+1:]
	} else if rerr.Known(rest) {
		code, rest = rest, ""
	}
	var retry time.Duration
	if tail, ok := strings.CutPrefix(rest, "RETRY="); ok {
		tok := tail
		if sp := strings.IndexByte(tail, ' '); sp >= 0 {
			tok, tail = tail[:sp], tail[sp+1:]
		} else {
			tail = ""
		}
		if ms, err := strconv.ParseInt(tok, 10, 64); err == nil && ms > 0 {
			retry = retryHint(ms, time.Millisecond)
			rest = tail
		}
	}
	return rerr.WithRetryAfter(decodeRemoteError(code, "proto: remote error: "+rest), retry)
}

// decodeHTTPError rebuilds a remote failure from a non-200 response,
// including any retry-after hint the server attached.
func decodeHTTPError(resp *http.Response, msg string) error {
	err := decodeRemoteError(resp.Header.Get(errorCodeHeader), msg)
	if v := resp.Header.Get(retryAfterHeader); v != "" {
		if ms, perr := strconv.ParseInt(v, 10, 64); perr == nil && ms > 0 {
			return rerr.WithRetryAfter(err, retryHint(ms, time.Millisecond))
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if sec, perr := strconv.ParseInt(v, 10, 64); perr == nil && sec > 0 {
			return rerr.WithRetryAfter(err, retryHint(sec, time.Second))
		}
	}
	return err
}

// setTenantHeaders stamps the client's identity onto an outgoing
// request.
func setTenantHeaders(req *http.Request, tenant, key, priority string) {
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if key != "" {
		req.Header.Set(tenantKeyHeader, key)
	}
	if priority != "" {
		req.Header.Set(priorityHeader, priority)
	}
}
