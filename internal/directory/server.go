package directory

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"remos/internal/conc"
)

// The directory wire protocol: a line-oriented service in the spirit of
// SLP, letting collectors at other sites register their responsibilities
// with a deployment's directory and masters elsewhere list them.
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
		for {
			if err := s.serveOne(conn, r); err != nil {
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

// serveOne reads and answers one command. It takes plain reader/writer
// halves (rather than a net.Conn) so the parser is drivable from fuzz
// and unit tests without a socket.
func (s *Server) serveOne(w io.Writer, r *bufio.Reader) error {
	line, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	f := strings.Fields(line)
	if len(f) == 0 {
		fmt.Fprintln(w, "ERR empty command")
		return nil
	}
	switch f[0] {
	case "REGISTER":
		if len(f) != 6 {
			fmt.Fprintln(w, "ERR REGISTER needs name ttl endpoint benchHost nPrefixes")
			return nil
		}
		ttlSec, err1 := strconv.Atoi(f[2])
		nPrefixes, err2 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil || nPrefixes < 0 || nPrefixes > 1024 {
			fmt.Fprintln(w, "ERR bad numbers")
			return nil
		}
		a := Advert{Name: f[1], Endpoint: f[3]}
		if f[4] != "-" {
			bh, err := netip.ParseAddr(f[4])
			if err != nil {
				fmt.Fprintln(w, "ERR bad bench host")
				return nil
			}
			a.BenchHost = bh
		}
		for i := 0; i < nPrefixes; i++ {
			pl, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			p, err := netip.ParsePrefix(strings.TrimSpace(pl))
			if err != nil {
				fmt.Fprintf(w, "ERR bad prefix %q\n", strings.TrimSpace(pl))
				return nil
			}
			a.Prefixes = append(a.Prefixes, p)
		}
		if err := s.Service.Register(a, time.Duration(ttlSec)*time.Second); err != nil {
			fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
			return nil
		}
		fmt.Fprintln(w, "OK")
	case "REPLICATE":
		if len(f) != 10 {
			fmt.Fprintln(w, "ERR REPLICATE needs name ttl endpoint benchHost domain priority epoch seq nPrefixes")
			return nil
		}
		ttlSec, err1 := strconv.Atoi(f[2])
		prio, err2 := strconv.Atoi(f[6])
		epoch, err3 := strconv.ParseUint(f[7], 10, 64)
		seq, err4 := strconv.ParseUint(f[8], 10, 64)
		nPrefixes, err5 := strconv.Atoi(f[9])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || nPrefixes < 0 || nPrefixes > 1024 {
			fmt.Fprintln(w, "ERR bad numbers")
			return nil
		}
		a := Advert{Name: f[1], Endpoint: f[3], Priority: prio, Epoch: epoch, Seq: seq}
		if f[4] != "-" {
			bh, err := netip.ParseAddr(f[4])
			if err != nil {
				fmt.Fprintln(w, "ERR bad bench host")
				return nil
			}
			a.BenchHost = bh
		}
		if f[5] != "-" {
			a.Domain = f[5]
		}
		for i := 0; i < nPrefixes; i++ {
			pl, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			p, err := netip.ParsePrefix(strings.TrimSpace(pl))
			if err != nil {
				fmt.Fprintf(w, "ERR bad prefix %q\n", strings.TrimSpace(pl))
				return nil
			}
			a.Prefixes = append(a.Prefixes, p)
		}
		applied := s.Service.ReplicaApply(a, time.Duration(ttlSec)*time.Second)
		flag := 0
		if applied {
			flag = 1
		}
		fmt.Fprintf(w, "OK %d\n", flag)
	case "DEREGISTER":
		if len(f) != 2 {
			fmt.Fprintln(w, "ERR DEREGISTER needs name")
			return nil
		}
		s.Service.Deregister(f[1])
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
	line, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	line = strings.TrimSpace(line)
	if line != "OK" {
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
		head, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		var n int
		if _, err := fmt.Sscanf(head, "OK %d", &n); err != nil {
			return fmt.Errorf("directory: %s", strings.TrimSpace(head))
		}
		for i := 0; i < n; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			f := strings.Fields(line)
			if len(f) != 5 || f[0] != "ADVERT" {
				return fmt.Errorf("directory: bad advert line %q", strings.TrimSpace(line))
			}
			a := Advert{Name: f[1]}
			if f[2] != "-" {
				a.Endpoint = f[2]
			}
			if f[3] != "-" {
				bh, err := netip.ParseAddr(f[3])
				if err != nil {
					return err
				}
				a.BenchHost = bh
			}
			np, err := strconv.Atoi(f[4])
			if err != nil || np < 0 || np > 1024 {
				return fmt.Errorf("directory: bad prefix count %q", f[4])
			}
			for j := 0; j < np; j++ {
				pl, err := r.ReadString('\n')
				if err != nil {
					return err
				}
				p, err := netip.ParsePrefix(strings.TrimSpace(pl))
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
