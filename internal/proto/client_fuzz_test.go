package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"remos/internal/rerr"
	"remos/internal/watch"
)

// The client side of both wire protocols reads bytes a peer chose: the
// federation router reads other daemons' replies, and every remosctl
// reads a server's. These tests hold those readers to the rule for any
// parser facing a socket — reject, never panic, never let a declared
// count size an allocation.

// hostileTails are replies whose counts claim far more than they carry.
// Each ends at the header, so an honest reader fails on the missing
// lines after allocating no more than an ordinary reply needs.
var hostileTails = []struct {
	name  string
	flows bool // a FLOWS answer (readFlowsResult) rather than a QUERY result
	reply string
}{
	{"hist_1e18_samples", false, "HISTORY 1\nHIST a b 999999999999999999\n"},
	{"hist_4e8_samples", false, "HISTORY 1\nHIST a b 400000000\n"},
	{"hist_1e6_samples", false, "HISTORY 1\nHIST a b 1000000\n"},
	{"history_1e18_series", false, "HISTORY 999999999999999999\n"},
	{"history_1e5_series", false, "HISTORY 100000\n"},
	{"pred_1e18_steps", false, "HISTORY 0\nPREDICTIONS 1\nPRED a b 999999999999999999\n"},
	{"pred_1e6_steps", false, "HISTORY 0\nPREDICTIONS 1\nPRED a b 1000000\n"},
	{"predictions_1e5_series", false, "HISTORY 0\nPREDICTIONS 100000\n"},
	{"flows_1e18_answers", true, "OKF 999999999999999999\n"},
	{"flows_1e6_answers", true, "OKF 1000000\n"},
	{"flow_path_1e18_hops", true, "OKF 1\n1e+06 0 0 999999999999999999 a b\n"},
}

// resultHead is the part of a QUERY result before its history section:
// OK and an empty graph.
const resultHead = "OK\nGRAPH 0 0\nEND\n"

// TestHostileReplyCounts feeds the client readers replies whose declared
// counts are absurd: each must come back as an error, and decoding must
// allocate under 1 MiB however large the claim.
func TestHostileReplyCounts(t *testing.T) {
	for _, tc := range hostileTails {
		t.Run(tc.name, func(t *testing.T) {
			reply := tc.reply
			if !tc.flows {
				reply = resultHead + reply
			}
			r := bufio.NewReader(strings.NewReader(reply))
			var scratch []byte
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if tc.flows {
				_, err = readFlowsResult(r, &scratch)
			} else {
				_, err = readResult(r, &scratch)
			}
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("a reply cut short after its counts was accepted: %q", reply)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Fatalf("decoding allocated %d bytes for %q, want < 1 MiB", n, reply)
			}
		})
	}
}

// replyTranscripts returns the recorded reply transcripts of one
// protocol ("ascii" or "http").
func replyTranscripts(f *testing.F, protocol string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "transcripts", protocol, "*.out"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no %s reply transcripts: %v", protocol, err)
	}
	var out [][]byte
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// httpReplies parses every response of the recorded HTTP reply
// transcripts, body read.
func httpReplies(f *testing.F) []*http.Response {
	var out []*http.Response
	for _, b := range replyTranscripts(f, "http") {
		for r := bufio.NewReader(bytes.NewReader(b)); ; {
			resp, err := http.ReadResponse(r, nil)
			if err != nil {
				break // the end of the transcript
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body = io.NopCloser(bytes.NewReader(body))
			out = append(out, resp)
		}
	}
	return out
}

// FuzzReadResult feeds arbitrary replies to the ASCII QUERY result
// reader: no panic, and a result it accepts survives writeResult — read
// back, it is the same result and renders to the same bytes. Seeds are
// the recorded ASCII reply transcripts and the hostile tails.
func FuzzReadResult(f *testing.F) {
	for _, b := range replyTranscripts(f, "ascii") {
		f.Add(b)
	}
	for _, tc := range hostileTails {
		if !tc.flows {
			f.Add([]byte(resultHead + tc.reply))
		}
	}
	// read decodes one result and returns what writeResult renders of it
	// and its series as fmt prints them: maps in key order and floats
	// exactly, NaN included, which reflect.DeepEqual cannot compare.
	read := func(t *testing.T, b []byte) (enc []byte, series string, err error) {
		var scratch []byte
		res, err := readResult(bufio.NewReader(bytes.NewReader(b)), &scratch)
		if err != nil {
			return nil, "", err
		}
		var buf bytes.Buffer
		if err := writeResult(&buf, res); err != nil {
			t.Fatalf("an accepted result does not encode: %v", err)
		}
		return buf.Bytes(), fmt.Sprint(res.History, res.Predictions), nil
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		enc, series, err := read(t, reply)
		if err != nil {
			return
		}
		again, seriesAgain, err := read(t, enc)
		if err != nil {
			t.Fatalf("a re-encoded result does not read back (%v):\n%s", err, enc)
		}
		if seriesAgain != series || !bytes.Equal(again, enc) {
			t.Fatalf("a result changed through writeResult:\n got: %s %q\nwant: %s %q", seriesAgain, again, series, enc)
		}
	})
}

// FuzzSSEEvents feeds arbitrary streams to the watch client's
// Server-Sent Events reader: no panic; every "end" event, and only an
// "end" event, decodes to a terminal update; and the events read,
// rendered back the way the server writes them, read back unchanged
// (all but those whose name or data ends in a carriage return, which a
// CRLF line end would swallow). Seeds are the recorded event streams.
func FuzzSSEEvents(f *testing.F) {
	for _, resp := range httpReplies(f) {
		if resp.Header.Get("Content-Type") == "text/event-stream" {
			body, _ := io.ReadAll(resp.Body)
			f.Add(body)
		}
	}
	f.Add([]byte("event: update\r\ndata: {\"seq\":1}\r\n\r\nevent: end\r\n\r\n"))
	f.Add([]byte("data: x\nevent: end\ndata: {\"code\":\"OVERLOADED\"}\nid: 7\n\n: comment\nevent: update\n"))
	read := func(stream []byte) [][2]string {
		var got [][2]string
		sc := bufio.NewScanner(bytes.NewReader(stream))
		for {
			event, data, err := nextSSE(sc)
			if err != nil {
				return got
			}
			got = append(got, [2]string{event, data})
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		events := read(stream)
		var kept [][2]string
		var rendered bytes.Buffer
		for _, ev := range events {
			u, ok := decodeSSE(ev[0], ev[1])
			if terminal := ok && u.Err != nil; terminal != (ev[0] == "end") {
				t.Fatalf("event %q decoded terminal=%v (ok=%v, %+v)", ev[0], terminal, ok, u)
			}
			if strings.HasSuffix(ev[0], "\r") || strings.HasSuffix(ev[1], "\r") {
				continue
			}
			kept = append(kept, ev)
			fmt.Fprintf(&rendered, "event: %s\ndata: %s\n\n", ev[0], ev[1])
		}
		if again := read(rendered.Bytes()); fmt.Sprint(again) != fmt.Sprint(kept) {
			t.Fatalf("events changed through a rendering:\n got: %q\nwant: %q", again, kept)
		}
	})
}

// FuzzWatchLines feeds arbitrary streams, line by line, to the ASCII
// watch client's line decoder: no panic; an UPDATE it accepts, rendered
// back the way the server writes it, decodes to the same update; and
// every END, and every UNWATCHED whether or not the client asked for it,
// ends the watch with an error, a known wire code in it surviving
// errors.Is. Seeds are the recorded ASCII watch transcripts.
func FuzzWatchLines(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "transcripts", "ascii", "watch_*.out"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no ASCII watch transcripts: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("UPDATE 1 +2 -9223372036854775808 NaN -0 x\r\nEND 1 CANCELED bye\nUNWATCHED\nEND\n"))
	spec := watch.Spec{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, line := range strings.SplitAfter(string(stream), "\n") {
			u, ok := decodeWatchLine(line, spec, nil)
			fields := append(strings.Fields(line), "", "", "")
			terminal := ok && u.Err != nil
			if terminal != (fields[0] == "END" || fields[0] == "UNWATCHED") {
				t.Fatalf("%q decoded terminal=%v (ok=%v, %+v)", line, terminal, ok, u)
			}
			if code := fields[2]; fields[0] == "END" && rerr.Known(code) && rerr.Code(u.Err) != code {
				t.Fatalf("%q ended with %v, code %q", line, u.Err, rerr.Code(u.Err))
			}
			if !ok || terminal {
				continue
			}
			var rendered bytes.Buffer
			writeWatchLine(&rendered, 1, u)
			again, ok := decodeWatchLine(rendered.String(), spec, nil)
			if !ok || fmt.Sprint(again) != fmt.Sprint(u) {
				t.Fatalf("an update changed through a rendering:\n line: %q\n  got: %+v (ok=%v)\n want: %+v", rendered.String(), again, ok, u)
			}
		}
	})
}

// FuzzDecodeHTTPError feeds arbitrary failure headers to the HTTP error
// decoder and arbitrary ERR tails to the ASCII one: no panic, always an
// error, a known wire code survives, and any retry-after hint is in
// (0, maxRetryAfter] whatever number the peer sent. Seeds are the
// recorded HTTP failures and ASCII ERR lines.
func FuzzDecodeHTTPError(f *testing.F) {
	for _, resp := range httpReplies(f) {
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			f.Add(resp.Header.Get(errorCodeHeader), resp.Header.Get(retryAfterHeader),
				resp.Header.Get("Retry-After"), string(body), "")
		}
	}
	for _, b := range replyTranscripts(f, "ascii") {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "ERR "); ok {
				f.Add("", "", "", "", rest)
			}
		}
	}
	f.Add("OVERLOADED", "9223372036854775807", "9223372036854775807", "shed", "OVERLOADED RETRY=9223372036854775807 shed")
	f.Add("OVERLOADED", "9300000000000", "9300000000", "shed", "OVERLOADED RETRY=9300000000000 shed")
	f.Add("OVERLOADED", "90000000", "90000", "shed", "OVERLOADED RETRY=90000000 shed") // 25 h: no overflow, past the cap
	f.Add("BOGUS", "-5", "0", "", "RETRY=-1")
	f.Fuzz(func(t *testing.T, code, retryMs, retrySec, msg, errLine string) {
		resp := &http.Response{Header: http.Header{}}
		for k, v := range map[string]string{errorCodeHeader: code, retryAfterHeader: retryMs, "Retry-After": retrySec} {
			if v != "" {
				resp.Header.Set(k, v)
			}
		}
		httpErr := decodeHTTPError(resp, msg)
		if rerr.Known(code) && rerr.Code(httpErr) != code {
			t.Fatalf("code %q decoded as %q", code, rerr.Code(httpErr))
		}
		for _, err := range []error{httpErr, decodeErrLine(errLine)} {
			if err == nil {
				t.Fatal("a failure decoded to no error")
			}
			if d, ok := rerr.RetryAfter(err); ok && (d <= 0 || d > maxRetryAfter) {
				t.Fatalf("retry-after %v outside (0, %v]", d, maxRetryAfter)
			}
		}
	})
}
