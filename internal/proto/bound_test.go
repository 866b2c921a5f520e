package proto

import (
	"bufio"
	"io"
	"runtime"
	"strings"
	"testing"

	"remos/internal/lines"
)

// endlessLine is a peer that sends prefix and then never sends "\n". It
// stops after limit bytes so that a reader with no bound fails the test
// rather than the machine.
type endlessLine struct {
	prefix      *strings.Reader
	read, limit int
}

func newEndlessLine(prefix string) *endlessLine {
	return &endlessLine{prefix: strings.NewReader(prefix), limit: len(prefix) + lines.Max + 1<<20}
}

func (e *endlessLine) Read(p []byte) (int, error) {
	if e.prefix.Len() > 0 {
		n, _ := e.prefix.Read(p)
		e.read += n
		return n, nil
	}
	if e.read >= e.limit {
		return 0, io.EOF
	}
	n := min(len(p), e.limit-e.read)
	for i := range p[:n] {
		p[i] = 'a'
	}
	e.read += n
	return n, nil
}

// heapAllocated runs fn and returns the bytes it allocated. The growth
// of a scratch capped at lines.Max doubles up to it, so it sums to under
// 2*lines.Max.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The serve loop drops a connection whose request line, query host line
// or flow line never ends, after reading at most the line bound and one
// reader buffer, and gathers no more than the bound of it.
func TestServeConnBoundsALine(t *testing.T) {
	srv := &TCPServer{}
	srv.core = newCore("ascii", staticCollector{}, staticFlows{}, nil, nil, nil, nil)
	for _, prefix := range []string{"", "QUERY 2 0 0\n10.0.0.1\n", "FLOWS 1\n"} {
		src := newEndlessLine(prefix)
		alloc := heapAllocated(func() { srv.serveConn(src, io.Discard) })
		if max := len(prefix) + lines.Max + 4096; src.read > max {
			t.Errorf("after %q the loop read %d bytes of an endless line, want at most %d", prefix, src.read, max)
		}
		if alloc > 5*lines.Max/2 {
			t.Errorf("after %q the loop allocated %d bytes for an endless line, want under %d", prefix, alloc, 5*lines.Max/2)
		}
	}
}

// The client's reply reader fails on a status line, graph line or
// history header that never ends, after reading at most the line bound
// and one reader buffer, its scratch no longer than the bound.
func TestReadResultBoundsALine(t *testing.T) {
	for _, prefix := range []string{"", "OK\nGRAPH 1 0\n", "OK\nGRAPH 0 0\nEND\n"} {
		src := newEndlessLine(prefix)
		var scratch []byte
		var err error
		alloc := heapAllocated(func() { _, err = readResult(bufio.NewReaderSize(src, 4096), &scratch) })
		if err == nil {
			t.Fatalf("after %q an endless line read as a reply", prefix)
		}
		if max := len(prefix) + lines.Max + 4096; src.read > max {
			t.Errorf("after %q readResult read %d bytes of an endless line, want at most %d", prefix, src.read, max)
		}
		if cap(scratch) > lines.Max || alloc > 5*lines.Max/2 {
			t.Errorf("after %q readResult kept %d bytes of scratch and allocated %d, want at most %d and %d",
				prefix, cap(scratch), alloc, lines.Max, 5*lines.Max/2)
		}
	}
}
