package proto

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/watch"
)

// The golden wire transcripts: raw request bytes (<case>.in) and raw
// reply bytes (<case>.out) per protocol under testdata/transcripts,
// recorded against the fixed world below. They pin what a peer sees on
// the socket, byte for byte, independently of how the handlers are
// factored; the .in files double as fuzz seeds (fuzz_test.go).
//
// Re-record with: go test ./internal/proto -run TestWireTranscripts -update-transcripts
var updateTranscripts = flag.Bool("update-transcripts", false,
	"re-record testdata/transcripts from the running code")

// transcriptCollector is the fixed collector: the queried addresses
// select the behaviour, so the request bytes alone determine the reply.
type transcriptCollector struct{ predColl }

func (c *transcriptCollector) Collect(q collector.Query) (*collector.Result, error) {
	for _, h := range q.Hosts {
		switch h.String() {
		case "10.9.9.1":
			return nil, rerr.Tagf(rerr.ErrUnknownHost, "master: no collector is responsible for %v", h)
		case "10.9.9.2":
			return nil, fmt.Errorf("synthetic failure\nwith newline")
		}
	}
	return c.predColl.Collect(q)
}

// transcriptFlows is the fixed flow answerer, selected the same way.
type transcriptFlows struct{ fakeFlows }

func (f *transcriptFlows) GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	for _, fl := range flows {
		switch fl.Src.String() {
		case "10.9.9.1":
			return nil, rerr.Tagf(rerr.ErrUnknownHost, "modeler: no such endpoint %v", fl.Src)
		case "10.9.9.2":
			return nil, fmt.Errorf("synthetic flow failure")
		}
	}
	return f.fakeFlows.GetFlowsContext(ctx, flows, opt)
}

// transcriptEpoch stamps every pushed update.
var transcriptEpoch = time.Unix(1_000_000_000, 0).UTC()

// transcriptRig is one freshly booted pair of servers. The full rig has
// an answerer, a registry on a fixed clock and an admission controller
// on a frozen one ("metered": two queries then a 2s shed; "w": one
// watch); the bare rig has only the collector.
type transcriptRig struct {
	reg         *watch.Registry
	ascii, http string
}

func newTranscriptRig(t *testing.T, bare bool) *transcriptRig {
	t.Helper()
	rig := &transcriptRig{}
	tcpSrv := &TCPServer{Collector: &transcriptCollector{}}
	httpSrv := &HTTPServer{Collector: &transcriptCollector{}}
	if !bare {
		rig.reg = watch.New(watch.Config{Now: func() time.Time { return transcriptEpoch }})
		t.Cleanup(func() { rig.reg.Close(nil) })
		ctrl := admission.New(admission.Config{
			Sched: sim.NewSim(),
			Tenants: map[string]admission.TenantConfig{
				"metered": {Key: "k1", Limits: admission.Limits{Rate: 0.5, Burst: 2}},
				"w":       {Limits: admission.Limits{MaxWatches: 1}},
			},
		})
		t.Cleanup(ctrl.Close)
		tcpSrv.Watch, tcpSrv.Flows, tcpSrv.Admission = rig.reg, &transcriptFlows{}, ctrl
		httpSrv.Watch, httpSrv.Flows, httpSrv.Admission = rig.reg, &transcriptFlows{}, ctrl
	}
	var err error
	if rig.ascii, err = tcpSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpSrv.Close() })
	if rig.http, err = httpSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { httpSrv.Close() })
	return rig
}

// exchange is one raw connection being replayed: the unsent request
// bytes and everything the server has answered so far.
type exchange struct {
	t    *testing.T
	conn net.Conn
	req  []byte
	got  []byte
	seen int // got[:seen] has been matched by await
}

// sendLines writes the next n request lines.
func (x *exchange) sendLines(n int) {
	x.t.Helper()
	end := 0
	for ; n > 0; n-- {
		i := bytes.IndexByte(x.req[end:], '\n')
		if i < 0 {
			x.t.Fatalf("request has fewer lines than the script sends")
		}
		end += i + 1
	}
	if _, err := x.conn.Write(x.req[:end]); err != nil {
		x.t.Fatal(err)
	}
	x.req = x.req[end:]
}

// await reads until the reply holds want past everything matched so far.
func (x *exchange) await(want string) {
	x.t.Helper()
	buf := make([]byte, 4096)
	for {
		if i := bytes.Index(x.got[x.seen:], []byte(want)); i >= 0 {
			x.seen += i + len(want)
			return
		}
		x.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := x.conn.Read(buf)
		x.got = append(x.got, buf[:n]...)
		if err != nil {
			x.t.Fatalf("waiting for %q: %v (reply so far %q)", want, err, x.got)
		}
	}
}

// finish sends what is left of the request and reads the reply to the
// end of the connection. halfClose ends the ASCII session the way a
// client hanging up does; HTTP requests end themselves ("Connection:
// close"), and a half-closed HTTP connection would cancel the request.
func (x *exchange) finish(halfClose bool) []byte {
	x.t.Helper()
	if _, err := x.conn.Write(x.req); err != nil {
		x.t.Fatal(err)
	}
	if halfClose {
		x.conn.(*net.TCPConn).CloseWrite()
	}
	x.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rest, err := io.ReadAll(x.conn)
	if err != nil {
		x.t.Fatalf("reading reply: %v (reply so far %q)", err, append(x.got, rest...))
	}
	return append(x.got, rest...)
}

type transcript struct {
	name string
	bare bool   // against the bare rig
	req  string // what -update-transcripts writes to <name>.in
	// script, when set, drives the server side between request lines;
	// the harness sends the remainder and reads to the end afterwards.
	script func(rig *transcriptRig, x *exchange)
}

const (
	asciiTwoHosts = "10.0.1.1\n10.0.2.2\nEND\n"
	asciiOneQuery = "QUERY 1 0 0\n10.0.0.1\nEND\n"
	asciiOneFlow  = "FLOWS 1\n10.0.1.1 10.0.2.1 0\nEND\n"
	asciiWatch    = "WATCH 10.0.1.1 10.0.2.2 5e+06 0 0\n"
)

var errTranscriptShutdown = rerr.Tagf(rerr.ErrCollectorUnavailable, "server shutting down")

var asciiTranscripts = []transcript{
	{name: "query_plain", req: "QUERY 2 0\n" + asciiTwoHosts},
	{name: "query_history", req: "QUERY 2 1 0\n" + asciiTwoHosts},
	{name: "query_predictions", req: "QUERY 2 0 1\n" + asciiTwoHosts},
	{name: "query_no_hosts", req: "QUERY 0 0 0\nEND\n"},
	{name: "flows", req: "FLOWS 2\n10.0.1.1 10.0.2.1 0\n10.0.2.1 10.0.1.1 3e+06\nEND\n"},
	{name: "flows_empty", req: "FLOWS 0\nEND\n"},
	{name: "watch_update_unwatch", req: asciiWatch + "UNWATCH 1\n",
		script: func(rig *transcriptRig, x *exchange) {
			x.sendLines(1)
			x.await("WATCHING 1\n")
			rig.reg.Evaluate(watchPair, availIndex(8e6))
			x.await(" init\n")
			rig.reg.Evaluate(watchPair, availIndex(3e6))
			x.await(" below\n")
		}},
	{name: "watch_server_end", req: asciiWatch,
		script: func(rig *transcriptRig, x *exchange) {
			x.sendLines(1)
			x.await("WATCHING 1\n")
			rig.reg.Evaluate(watchPair, availIndex(8e6))
			x.await(" init\n")
			rig.reg.Close(errTranscriptShutdown)
			x.await("END 1 ")
		}},
	{name: "watch_then_query", req: asciiWatch + asciiOneQuery + "UNWATCH 1\nUNWATCH 9\n",
		script: func(rig *transcriptRig, x *exchange) {
			x.sendLines(1)
			x.await("WATCHING 1\n")
		}},
	{name: "watch_malformed", req: "WATCH nonsense\n" +
		"WATCH 10.0.1.1 nowhere 1 0 0\n" +
		"WATCH 10.0.1.1 10.0.2.2 -1 0 0\n" +
		"WATCH 10.0.1.1 10.0.2.2 0 0 0\n" +
		"UNWATCH\nUNWATCH x\n" + asciiOneQuery},
	{name: "watch_quota", req: "TENANT w -\n" + asciiWatch + asciiWatch + asciiOneQuery},
	{name: "tenant_pipelined", req: "TENANT metered k1 batch\n" + asciiOneQuery + asciiOneFlow},
	{name: "tenant_anonymous_blank", req: "TENANT - - interactive\n" + asciiOneQuery},
	{name: "tenant_malformed", req: "TENANT\n" + asciiOneQuery},
	{name: "bad_credentials", req: "TENANT metered wrong\n" + asciiOneQuery},
	{name: "unknown_tenant", req: "TENANT ghost\n" + asciiOneQuery},
	{name: "bad_tier", req: "TENANT metered k1 urgent\n" + asciiOneQuery},
	{name: "shed", req: "TENANT metered k1\n" + asciiOneQuery + asciiOneQuery + asciiOneQuery + asciiOneFlow},
	{name: "no_answerer", bare: true, req: asciiOneFlow + asciiWatch + asciiOneQuery},
	{name: "preamble_plain_server", bare: true, req: "TENANT metered k1 batch\n" + asciiOneQuery},
	{name: "collector_error_typed", req: "QUERY 1 0 0\n10.9.9.1\nEND\n" + asciiOneQuery},
	{name: "collector_error_untyped", req: "QUERY 1 0 0\n10.9.9.2\nEND\n" + asciiOneQuery},
	{name: "flows_error_typed", req: "FLOWS 1\n10.9.9.1 10.0.1.1 0\nEND\n" + asciiOneFlow},
	{name: "flows_error_untyped", req: "FLOWS 1\n10.9.9.2 10.0.1.1 0\nEND\n" + asciiOneFlow},
	{name: "garbage_line", req: "WHAT IS THIS\n" + asciiOneQuery},
	{name: "garbage_query_body", req: "QUERY 1 0 0\nnot-an-address\nEND\n" + asciiOneQuery},
	{name: "garbage_query_header", req: "QUERY 1 x\n" + asciiOneQuery},
	{name: "garbage_flows_body", req: "FLOWS 1\n10.0.1.1 nowhere 0\nEND\n" + asciiOneFlow},
	{name: "garbage_missing_end", req: "QUERY 1 0 0\n10.0.0.1\nQUERY 1 0 0\n"},
}

// httpReq renders one raw HTTP/1.1 request. Requests pipeline on one
// connection; the last one of a transcript carries "Connection: close".
func httpReq(method, path, body string, hdr ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: remos\r\n", method, path)
	for _, h := range hdr {
		b.WriteString(h + "\r\n")
	}
	if body != "" {
		fmt.Fprintf(&b, "Content-Type: application/xml\r\nContent-Length: %d\r\n", len(body))
	}
	return b.String() + "\r\n" + body
}

const (
	connClose     = "Connection: close"
	xmlTwoHosts   = "<host>10.0.1.1</host><host>10.0.2.2</host></query>"
	xmlOneQuery   = "<query><host>10.0.0.1</host></query>"
	xmlOneFlow    = `<flows><flow src="10.0.1.1" dst="10.0.2.1"></flow></flows>`
	meteredTenant = "X-Remos-Tenant: metered"
	meteredKey    = "X-Remos-Tenant-Key: k1"
	watchPath     = "/watch?src=10.0.1.1&dst=10.0.2.2&below=5e%2B06"
)

var httpTranscripts = []transcript{
	{name: "query_plain", req: httpReq("POST", "/query", "<query>"+xmlTwoHosts, connClose)},
	{name: "query_history", req: httpReq("POST", "/query", `<query history="true">`+xmlTwoHosts, connClose)},
	{name: "query_predictions", req: httpReq("POST", "/query", `<query predictions="true">`+xmlTwoHosts, connClose)},
	{name: "flows", req: httpReq("POST", "/flows",
		`<flows><flow src="10.0.1.1" dst="10.0.2.1"></flow><flow src="10.0.2.1" dst="10.0.1.1" demand="3e+06"></flow></flows>`, connClose)},
	{name: "watch_update_end", req: httpReq("GET", watchPath, "", connClose),
		script: func(rig *transcriptRig, x *exchange) {
			x.sendLines(4)
			waitActive(x.t, rig.reg, 1)
			rig.reg.Evaluate(watchPair, availIndex(8e6))
			x.await(`"reason":"init"}`)
			rig.reg.Evaluate(watchPair, availIndex(3e6))
			x.await(`"reason":"below"}`)
			rig.reg.Close(errTranscriptShutdown)
		}},
	{name: "watch_malformed", req: httpReq("GET", "/watch?src=nowhere&dst=10.0.2.2&below=1", "") +
		httpReq("GET", "/watch?src=10.0.1.1&dst=10.0.2.2&below=-1", "") +
		httpReq("GET", "/watch?src=10.0.1.1&dst=10.0.2.2", "") +
		httpReq("POST", watchPath, "", connClose)},
	{name: "watch_quota", req: httpReq("GET", watchPath, "", "X-Remos-Tenant: w", connClose),
		script: func(rig *transcriptRig, x *exchange) {
			// Another connection holds the tenant's only watch slot.
			hold, err := net.Dial("tcp", rig.http)
			if err != nil {
				x.t.Fatal(err)
			}
			x.t.Cleanup(func() { hold.Close() })
			io.WriteString(hold, httpReq("GET", watchPath, "", "X-Remos-Tenant: w"))
			waitActive(x.t, rig.reg, 1)
		}},
	{name: "tenant_headers", req: httpReq("POST", "/query", xmlOneQuery, meteredTenant, meteredKey, "X-Remos-Priority: batch") +
		httpReq("POST", "/flows", xmlOneFlow, meteredTenant, meteredKey, connClose)},
	{name: "bad_credentials", req: httpReq("POST", "/query", xmlOneQuery, meteredTenant, "X-Remos-Tenant-Key: wrong", connClose)},
	{name: "unknown_tenant", req: httpReq("POST", "/flows", xmlOneFlow, "X-Remos-Tenant: ghost", connClose)},
	{name: "bad_tier", req: httpReq("POST", "/query", xmlOneQuery, meteredTenant, meteredKey, "X-Remos-Priority: urgent", connClose)},
	{name: "shed", req: httpReq("POST", "/query", xmlOneQuery, meteredTenant, meteredKey) +
		httpReq("POST", "/query", xmlOneQuery, meteredTenant, meteredKey) +
		httpReq("POST", "/query", xmlOneQuery, meteredTenant, meteredKey) +
		httpReq("POST", "/flows", xmlOneFlow, meteredTenant, meteredKey, connClose)},
	{name: "no_answerer", bare: true, req: httpReq("POST", "/flows", xmlOneFlow, connClose)},
	{name: "collector_error_typed", req: httpReq("POST", "/query", "<query><host>10.9.9.1</host></query>", connClose)},
	{name: "collector_error_untyped", req: httpReq("POST", "/query", "<query><host>10.9.9.2</host></query>", connClose)},
	{name: "flows_error_typed", req: httpReq("POST", "/flows", `<flows><flow src="10.9.9.1" dst="10.0.1.1"></flow></flows>`, connClose)},
	{name: "flows_error_untyped", req: httpReq("POST", "/flows", `<flows><flow src="10.9.9.2" dst="10.0.1.1"></flow></flows>`, connClose)},
	{name: "garbage_body", req: httpReq("POST", "/query", "WHAT IS THIS") +
		httpReq("POST", "/flows", "<flows><flow", connClose)},
	{name: "garbage_address", req: httpReq("POST", "/query", "<query><host>not-an-address</host></query>") +
		httpReq("POST", "/flows", `<flows><flow src="nowhere" dst="10.0.1.1"></flow></flows>`) +
		httpReq("POST", "/flows", `<flows><flow src="10.0.1.1" dst="nowhere"></flow></flows>`, connClose)},
	{name: "wrong_method", req: httpReq("GET", "/query", "") + httpReq("GET", "/flows", "", connClose)},
}

var httpDate = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)

func TestWireTranscripts(t *testing.T) {
	for _, proto := range []struct {
		name  string
		cases []transcript
	}{{"ascii", asciiTranscripts}, {"http", httpTranscripts}} {
		dir := filepath.Join("testdata", "transcripts", proto.name)
		for _, tc := range proto.cases {
			t.Run(proto.name+"/"+tc.name, func(t *testing.T) {
				inPath, outPath := filepath.Join(dir, tc.name+".in"), filepath.Join(dir, tc.name+".out")
				if *updateTranscripts {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(inPath, []byte(tc.req), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				req, err := os.ReadFile(inPath)
				if err != nil {
					t.Fatal(err)
				}
				if string(req) != tc.req {
					t.Fatalf("%s is stale against the case table; re-record with -update-transcripts", inPath)
				}
				rig := newTranscriptRig(t, tc.bare)
				addr := rig.ascii
				if proto.name == "http" {
					addr = rig.http
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				x := &exchange{t: t, conn: conn, req: req}
				if tc.script != nil {
					tc.script(rig, x)
				}
				got := x.finish(proto.name == "ascii")
				got = httpDate.ReplaceAll(got, []byte("Date: -\r"))
				if *updateTranscripts {
					if err := os.WriteFile(outPath, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("reply differs from %s\n got: %q\nwant: %q", outPath, got, want)
				}
			})
		}
	}
}
