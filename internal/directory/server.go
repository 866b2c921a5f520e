package directory

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"remos/internal/conc"
	"remos/internal/lines"
)

// The directory wire protocol: a line-oriented service in the spirit of
// SLP, letting collectors at other sites register their responsibilities
// with a deployment's directory and masters elsewhere list them. Lines
// are framed as on every ASCII wire (package lines): they end at LF or
// CRLF, fields are separated by ASCII white space, and a line is at most
// 16 MiB — a longer one, or an unterminated tail at the end of input,
// ends the connection.
//
//	C: REGISTER <name> <ttlSeconds> <endpoint> <benchHost|-> <nPrefixes>
//	C: <prefix> ... (n lines)
//	S: OK | ERR <message>
//
//	C: DEREGISTER <name>
//	S: OK
//
//	C: LIST
//	S: OK <n>
//	S: ADVERT <name> <endpoint> <benchHost|-> <nPrefixes>
//	S: <prefix> ... (n lines, repeated per advert)
//
// The federation plane adds one verb. REPLICATE pushes one advert
// between peer directories under latest-lease-wins (the reply's flag
// reports whether it was applied or lost to a fresher lease), carrying
// the lease fields REGISTER does not: domain, replica priority,
// serving-graph epoch and lease sequence.
//
//	C: REPLICATE <name> <ttlSeconds> <endpoint> <benchHost|-> <domain|-> <priority> <epoch> <seq> <nPrefixes>
//	C: <prefix> ... (n lines)
//	S: OK <applied:0|1> | ERR <message>
//
// A REGISTER or REPLICATE is answered once, after all n prefix lines are
// read, whatever else is wrong with it: one ERR names the header's fault
// or else the first bad prefix line. A header whose prefix count cannot
// be read (a wrong field count, or a count that is no number in
// 0..1024) is answered ERR and ends the connection, since the lines
// after it can no longer be framed.

// wireTTL renders a live lease's lifetime in the whole seconds the wire
// grammar carries, rounding up: truncation would collapse a sub-second
// lease to 0, which the receiving side reads as "use DefaultTTL" — a
// 500ms lease must not arrive as a three-hour one.
func wireTTL(ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	return int((ttl + time.Second - 1) / time.Second)
}

// Server exposes a Service over TCP.
type Server struct {
	Service *Service

	ln *conc.Listener
}

// ListenAndServe binds addr and serves in the background, returning the
// bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := conc.Listen(addr, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		var scratch []byte
		for {
			if err := s.serveOne(conn, r, &scratch); err != nil {
				return
			}
		}
	})
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Close stops the server: the listener and every established peer
// connection are closed, and Close returns once their serve loops have
// exited.
func (s *Server) Close() error { return s.ln.Close() }

// serveOne reads and answers one command; scratch holds a line longer
// than r's buffer (see package lines). It takes plain reader/writer
// halves (rather than a net.Conn) so the parser is drivable from fuzz
// and unit tests without a socket.
func (s *Server) serveOne(w io.Writer, r *bufio.Reader, scratch *[]byte) error {
	line, err := lines.Read(r, scratch)
	if err != nil {
		return err
	}
	var f [10][]byte
	n := lines.Split(line, f[:])
	if n == 0 {
		fmt.Fprintln(w, "ERR empty command")
		return nil
	}
	switch string(f[0]) {
	case "REGISTER":
		if n != 6 {
			fmt.Fprintln(w, "ERR REGISTER needs name ttl endpoint benchHost nPrefixes")
			return errUnframed
		}
		nPrefixes, ok := prefixCount(f[5])
		if !ok {
			fmt.Fprintln(w, "ERR bad numbers")
			return errUnframed
		}
		var reject string
		ttlSec, err := strconv.Atoi(string(f[2]))
		if err != nil {
			reject = "bad numbers"
		}
		a := Advert{Name: string(f[1]), Endpoint: string(f[3])}
		if a.BenchHost, err = parseBenchHost(f[4]); err != nil && reject == "" {
			reject = "bad bench host"
		}
		if a.Prefixes, ok, err = readPrefixes(w, r, scratch, nPrefixes, reject); !ok {
			return err
		}
		if err := s.Service.Register(a, time.Duration(ttlSec)*time.Second); err != nil {
			fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
			return nil
		}
		fmt.Fprintln(w, "OK")
	case "REPLICATE":
		if n != 10 {
			fmt.Fprintln(w, "ERR REPLICATE needs name ttl endpoint benchHost domain priority epoch seq nPrefixes")
			return errUnframed
		}
		nPrefixes, ok := prefixCount(f[9])
		if !ok {
			fmt.Fprintln(w, "ERR bad numbers")
			return errUnframed
		}
		var reject string
		ttlSec, err1 := strconv.Atoi(string(f[2]))
		prio, err2 := strconv.Atoi(string(f[6]))
		epoch, err3 := strconv.ParseUint(string(f[7]), 10, 64)
		seq, err4 := strconv.ParseUint(string(f[8]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			reject = "bad numbers"
		}
		a := Advert{Name: string(f[1]), Endpoint: string(f[3]), Priority: prio, Epoch: epoch, Seq: seq}
		if a.BenchHost, err = parseBenchHost(f[4]); err != nil && reject == "" {
			reject = "bad bench host"
		}
		if string(f[5]) != "-" {
			a.Domain = string(f[5])
		}
		if a.Prefixes, ok, err = readPrefixes(w, r, scratch, nPrefixes, reject); !ok {
			return err
		}
		applied := s.Service.ReplicaApply(a, time.Duration(ttlSec)*time.Second)
		flag := 0
		if applied {
			flag = 1
		}
		fmt.Fprintf(w, "OK %d\n", flag)
	case "DEREGISTER":
		if n != 2 {
			fmt.Fprintln(w, "ERR DEREGISTER needs name")
			return nil
		}
		s.Service.Deregister(string(f[1]))
		fmt.Fprintln(w, "OK")
	case "LIST":
		adverts := s.Service.Adverts()
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "OK %d\n", len(adverts))
		for _, a := range adverts {
			bench := "-"
			if a.BenchHost.IsValid() {
				bench = a.BenchHost.String()
			}
			endpoint := a.Endpoint
			if endpoint == "" {
				endpoint = "-"
			}
			fmt.Fprintf(bw, "ADVERT %s %s %s %d\n", a.Name, endpoint, bench, len(a.Prefixes))
			for _, p := range a.Prefixes {
				fmt.Fprintln(bw, p.String())
			}
		}
		return bw.Flush()
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", f[0])
	}
	return nil
}

// parseBenchHost reads an advert's bench host token, "-" for none.
func parseBenchHost(tok []byte) (netip.Addr, error) {
	if string(tok) == "-" {
		return netip.Addr{}, nil
	}
	return netip.ParseAddr(string(tok))
}

// errUnframed ends a connection whose advert header carries no readable
// prefix count: the prefix lines that follow cannot be told from
// commands.
var errUnframed = errors.New("directory: advert header without a readable prefix count")

// prefixCount reads an advert header's prefix count, 0 through 1024.
func prefixCount(tok []byte) (int, bool) {
	n, err := strconv.Atoi(string(tok))
	return n, err == nil && n >= 0 && n <= 1024
}

// readPrefixes reads the n prefix lines that follow an advert's header,
// all of them whatever else is wrong, so the stream stays framed. A
// header fault (reject non-empty) or a line that is no prefix is
// answered with one ERR, the header's fault or else the first bad
// line's, and returns ok false and no error: the connection stays. A
// read error is returned, to end it.
func readPrefixes(w io.Writer, r *bufio.Reader, scratch *[]byte, n int, reject string) (ps []netip.Prefix, ok bool, err error) {
	for i := 0; i < n; i++ {
		line, err := lines.Read(r, scratch)
		if err != nil {
			return nil, false, err
		}
		line = bytes.TrimSpace(line)
		p, err := netip.ParsePrefix(string(line))
		if err != nil && reject == "" {
			reject = fmt.Sprintf("bad prefix %q", line)
		}
		ps = append(ps, p)
	}
	if reject != "" {
		fmt.Fprintf(w, "ERR %s\n", reject)
		return nil, false, nil
	}
	return ps, true, nil
}

// Client registers with a remote directory server.
type Client struct {
	Addr string
	// Timeout bounds each exchange (default 10s).
	Timeout time.Duration
}

func (c *Client) exchange(fn func(conn net.Conn, r *bufio.Reader) error) error {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	return fn(conn, bufio.NewReader(conn))
}

func expectOK(r *bufio.Reader) error {
	var scratch []byte
	line, err := lines.Read(r, &scratch)
	if err != nil {
		return err
	}
	if line = bytes.TrimSpace(line); string(line) != "OK" {
		return fmt.Errorf("directory: %s", line)
	}
	return nil
}

// Register advertises a remote collector (endpoint form only — a local
// handle cannot cross the wire).
func (c *Client) Register(a Advert, ttl time.Duration) error {
	if a.Endpoint == "" {
		return fmt.Errorf("directory: remote registration requires an endpoint")
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return c.exchange(func(conn net.Conn, r *bufio.Reader) error {
		bench := "-"
		if a.BenchHost.IsValid() {
			bench = a.BenchHost.String()
		}
		bw := bufio.NewWriter(conn)
		fmt.Fprintf(bw, "REGISTER %s %d %s %s %d\n",
			a.Name, wireTTL(ttl), a.Endpoint, bench, len(a.Prefixes))
		for _, p := range a.Prefixes {
			fmt.Fprintln(bw, p.String())
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return expectOK(r)
	})
}

// Deregister removes a remote registration.
func (c *Client) Deregister(name string) error {
	return c.exchange(func(conn net.Conn, r *bufio.Reader) error {
		fmt.Fprintf(conn, "DEREGISTER %s\n", name)
		return expectOK(r)
	})
}

// List fetches the remote directory's current advertisements.
func (c *Client) List() ([]Advert, error) {
	var out []Advert
	err := c.exchange(func(conn net.Conn, r *bufio.Reader) error {
		fmt.Fprintln(conn, "LIST")
		var scratch []byte
		head, err := lines.Read(r, &scratch)
		if err != nil {
			return err
		}
		var n int
		if _, err := fmt.Sscanf(string(head), "OK %d", &n); err != nil {
			return fmt.Errorf("directory: %s", bytes.TrimSpace(head))
		}
		for i := 0; i < n; i++ {
			line, err := lines.Read(r, &scratch)
			if err != nil {
				return err
			}
			var f [5][]byte
			if lines.Split(line, f[:]) != 5 || string(f[0]) != "ADVERT" {
				return fmt.Errorf("directory: bad advert line %q", bytes.TrimSpace(line))
			}
			a := Advert{Name: string(f[1])}
			if string(f[2]) != "-" {
				a.Endpoint = string(f[2])
			}
			if a.BenchHost, err = parseBenchHost(f[3]); err != nil {
				return err
			}
			np, err := strconv.Atoi(string(f[4]))
			if err != nil || np < 0 || np > 1024 {
				return fmt.Errorf("directory: bad prefix count %q", f[4])
			}
			for j := 0; j < np; j++ {
				pl, err := lines.Read(r, &scratch)
				if err != nil {
					return err
				}
				p, err := netip.ParsePrefix(string(bytes.TrimSpace(pl)))
				if err != nil {
					return err
				}
				a.Prefixes = append(a.Prefixes, p)
			}
			out = append(out, a)
		}
		return nil
	})
	return out, err
}
