package proto

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"remos/internal/admission"
	"remos/internal/lines"
	"remos/internal/sim"
	"remos/internal/watch"
)

// FuzzASCIIConn feeds arbitrary bytes to the per-connection serve loop
// of a fully equipped server (answerer, registry, admission on a frozen
// clock, so a drained bucket sheds at once instead of queueing) and
// checks the loop neither panics nor hangs and that everything it wrote
// is a sequence of well-formed replies — results the client-side
// readers accept, ERR lines, watch acknowledgements — possibly cut short
// by a dropped connection, never a half-written or unknown message.
// Seeds are the recorded request transcripts.
func FuzzASCIIConn(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "transcripts", "ascii", "*.in"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no transcript seeds: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := watch.New(watch.Config{Now: time.Now})
		defer reg.Close(nil)
		ctrl := admission.New(admission.Config{
			Sched: sim.NewSim(),
			Tenants: map[string]admission.TenantConfig{
				"metered": {Key: "k1", Limits: admission.Limits{Rate: 0.5, Burst: 2}},
				"w":       {Limits: admission.Limits{MaxWatches: 1}},
			},
		})
		defer ctrl.Close()
		srv := &TCPServer{}
		srv.core = newCore("ascii", &transcriptCollector{}, &transcriptFlows{}, reg, ctrl, nil, nil)

		var out bytes.Buffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(bytes.NewReader(data), &out)
			srv.drains.Wait() // the connection's watch drains
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serve loop hung")
		}

		r := bufio.NewReader(&out)
		var scratch []byte
		for {
			head, err := r.Peek(4)
			if len(head) == 0 {
				return // end of the reply stream
			}
			switch {
			case bytes.HasPrefix(head, []byte("OK\n")):
				_, err = readResult(r, &scratch)
			case bytes.HasPrefix(head, []byte("OKF ")):
				_, err = readFlowsResult(r, &scratch)
			case bytes.HasPrefix(head, []byte("ERR ")):
				_, err = lines.Read(r, &scratch)
			default:
				var line []byte
				if line, err = lines.Read(r, &scratch); err == nil {
					var f [2][]byte
					n := lines.Split(line, f[:])
					_, isID := parseInt(f[1])
					if (string(f[0]) != "WATCHING" && string(f[0]) != "UNWATCHED") || !isID || n != 2 {
						t.Fatalf("server wrote an unknown message %q", line)
					}
				}
			}
			if err != nil {
				t.Fatalf("server wrote a malformed reply (%v) in %q", err, out.Bytes())
			}
		}
	})
}

// FuzzXMLRequest feeds arbitrary bodies to the POST /query and POST
// /flows handlers: no panic, and the answer is either a document the
// client-side decoders accept or one of the statuses a malformed or
// failing request maps to. Whenever the canonical-form scanner takes the
// body itself, encoding/xml decodes the same value from it.
func FuzzXMLRequest(f *testing.F) {
	for _, body := range []string{
		"<query>" + xmlTwoHosts, `<query history="true" predictions="true">` + xmlTwoHosts,
		xmlOneQuery, xmlOneFlow, "<query><host>10.9.9.1</host></query>",
		`<flows><flow src="10.0.2.1" dst="10.0.1.1" demand="3e+06"></flow></flows>`,
		`<flows><flow src="10.9.9.2" dst="10.0.1.1"></flow></flows>`,
		"<query><host>not-an-address</host></query>", "<flows><flow", "WHAT IS THIS", "",
		`<flows><flow dst="fe80::1%eth0" src="::ffff:10.0.0.1" demand="NaN"/></flows>`,
		"<flows>\n <flow src=\"10.0.1.1\" dst=\"10.0.2.1\" demand=\"\"></flow>\n</flows>\n", "<flows/>",
		`<flows><flow src="10.0.1.1" dst="10.0.2.1" src="10.0.3.1"></flow></flows>`,
		`<flows><flow src="&#49;0.0.1.1" dst='10.0.2.1'></flow></flows>x`,
		`<query predictions="false" history="true"> <host>::1</host> </query>`, "<query/>",
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	f.Fuzz(func(t *testing.T, flows bool, body []byte) {
		if flows {
			checkScanFlowsQuery(t, body)
		} else {
			checkScanQuery(t, body)
		}
		srv := &HTTPServer{}
		srv.core = newCore("xml", &transcriptCollector{}, &transcriptFlows{}, nil, nil, nil, nil)
		path, handle := "/query", handler(srv.handleQuery)
		if flows {
			path, handle = "/flows", handler(srv.handleFlows)
		}
		rec := httptest.NewRecorder()
		handle.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var err error
			if flows {
				_, err = decodeFlowsResult(rec.Body.Bytes())
			} else {
				_, err = decodeResultXML(rec.Body.Bytes())
			}
			if err != nil {
				t.Fatalf("200 answer does not decode (%v): %q", err, rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusBadGateway:
			if rec.Body.Len() == 0 {
				t.Fatalf("status %d without a message", rec.Code)
			}
		default:
			t.Fatalf("unexpected status %d: %q", rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzXMLFlowsReply feeds arbitrary answer documents to the client side
// of POST /flows: no panic; whenever the canonical-form scanner takes
// the document itself, encoding/xml decodes the same value from it; and
// whatever decodes, the encoder renders as xml.Marshal does. Seeds are
// the bodies of the recorded HTTP reply transcripts.
func FuzzXMLFlowsReply(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "transcripts", "http", "*.out"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no transcript seeds: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for r := bufio.NewReader(bytes.NewReader(b)); ; {
			resp, err := http.ReadResponse(r, nil)
			if err != nil {
				break // the end of the transcript
			}
			body, _ := io.ReadAll(resp.Body)
			f.Add(body)
		}
	}
	f.Add([]byte(`<flowresult><flow src="fe80::1%eth0" dst="10.0.2.1" avail="" path="a  b "/></flowresult>`))
	f.Add([]byte(`<flowresult><flow src="10.0.1.1" dst="10.0.2.1" latns="+5" path="a&amp;b"></flow></flowresult>x`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanFlowsResult(t, body)
		infos, err := decodeFlowsResult(body)
		if err != nil {
			return
		}
		got, want := encoded(func(b *bytes.Buffer) { encodeFlowsResult(b, infos) }), marshalFlowsResult(t, infos)
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeFlowsResult(%v)\n got: %q\nwant: %q", infos, got, want)
		}
	})
}
