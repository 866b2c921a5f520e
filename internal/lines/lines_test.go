package lines

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Lines longer than the reader's buffer come back whole, in the scratch
// slice, which the next long line reuses.
func TestReadLongLines(t *testing.T) {
	long := strings.Repeat("x", 10000)
	r := bufio.NewReaderSize(strings.NewReader("short\n"+long+"\n"+long+"y\r\n"), 64)
	var scratch []byte
	for i, want := range []string{"short", long, long + "y"} {
		got, err := Read(r, &scratch)
		if err != nil || string(got) != want {
			t.Fatalf("line %d: %d bytes, %v; want %d bytes", i, len(got), err, len(want))
		}
		if i == 2 && &got[0] != &scratch[0] {
			t.Fatal("a long line did not come back in the scratch slice")
		}
	}
	if got, err := Read(r, &scratch); err != io.EOF || len(got) != 0 {
		t.Fatalf("at the end: %q, %v; want io.EOF", got, err)
	}
}

// A last line with no newline comes back as it is, with io.EOF, whether
// it fits the buffer or not; so does one cut short by another error.
func TestReadUnterminated(t *testing.T) {
	for _, in := range []string{"dangling", "dangling\r", strings.Repeat("z", 200)} {
		got, err := Read(bufio.NewReaderSize(strings.NewReader(in), 64), new([]byte))
		if err != io.EOF || string(got) != in {
			t.Fatalf("%d-byte tail: %q, %v; want it whole with io.EOF", len(in), got, err)
		}
	}
	broken := errors.New("reset")
	r := bufio.NewReaderSize(io.MultiReader(strings.NewReader(strings.Repeat("w", 100)), errReader{broken}), 16)
	if got, err := Read(r, new([]byte)); err != broken || len(got) != 100 {
		t.Fatalf("a line cut by a reset: %d bytes, %v", len(got), err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// endless is a stream that never sends "\n". It stops at limit bytes so
// that a reader with no bound fails the test rather than the machine.
type endless struct{ read, limit int }

func (e *endless) Read(p []byte) (int, error) {
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

// A line is refused once it passes Max, after reading at most Max and
// one buffer, and the scratch it gathered into never grows past Max. A
// line of exactly Max bytes, its newline included, is read.
func TestReadBound(t *testing.T) {
	const buf = 4096
	src := &endless{limit: Max + 1<<20}
	var scratch []byte
	if _, err := Read(bufio.NewReaderSize(src, buf), &scratch); !errors.Is(err, ErrTooLong) {
		t.Fatalf("an endless line: %v, want ErrTooLong", err)
	}
	if src.read > Max+buf || cap(scratch) > Max {
		t.Fatalf("refused after reading %d bytes into %d of scratch; want at most %d and %d", src.read, cap(scratch), Max+buf, Max)
	}
	whole := io.MultiReader(&endless{limit: Max - 1}, strings.NewReader("\nnext\n"))
	r := bufio.NewReaderSize(whole, buf)
	if got, err := Read(r, &scratch); err != nil || len(got) != Max-1 {
		t.Fatalf("a line of Max bytes: %d bytes, %v", len(got), err)
	}
	if got, err := Read(r, &scratch); err != nil || string(got) != "next" {
		t.Fatalf("the line after it: %q, %v", got, err)
	}
}

// Split counts every field and keeps what dst holds; Cut hands back
// the rest after a field.
func TestSplitAndCut(t *testing.T) {
	var f [3][]byte
	for _, c := range []struct {
		in   string
		n    int
		want string
	}{
		{"", 0, "[]"},
		{" \t\v\f\r\n", 0, "[]"},
		{"a", 1, "[a]"},
		{"  LINK a\tb \r", 3, "[LINK a b]"},
		{"1 2 3 4 5", 5, "[1 2 3]"},
		{"x\u00a0y", 1, "[x\u00a0y]"}, // only ASCII white space separates
	} {
		clear(f[:])
		n := Split([]byte(c.in), f[:])
		if got := fmt.Sprintf("%s", f[:min(n, len(f))]); n != c.n || got != c.want {
			t.Fatalf("Split(%q) = %d %s, want %d %s", c.in, n, got, c.n, c.want)
		}
	}
	field, rest := Cut([]byte(" END 1  bye now "))
	if string(field) != "END" || string(rest) != " 1  bye now " {
		t.Fatalf("Cut = %q, %q", field, rest)
	}
}

// FuzzLines: a stream read through a 16-byte and a 4 KiB bufio.Reader
// yields the lines splitting its bytes at "\n" gives, a "\r" before the
// "\n" dropped, and a non-empty tail after the last "\n" with io.EOF.
func FuzzLines(f *testing.F) {
	for _, s := range []string{
		"", "\n", "a", "a\n", "a\r\n", "\r\n\r\n", "a\rb\n", "\r", "x\r\r\n",
		"GRAPH 2 1\nNODE a host 10.0.0.1\nEND",
		"QUERY 2 0 0\r\n10.0.0.1\r\n10.0.0.2\r\nEND\r\n",
		strings.Repeat("long ", 40) + "\n" + strings.Repeat("y", 70),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		var want []string
		parts := bytes.Split(stream, []byte("\n"))
		for i, p := range parts {
			if i < len(parts)-1 {
				want = append(want, string(bytes.TrimSuffix(p, []byte("\r"))))
			} else if len(p) > 0 {
				want = append(want, string(p)+" (EOF)")
			}
		}
		for _, size := range []int{16, 4096} {
			r := bufio.NewReaderSize(bytes.NewReader(stream), size)
			var got []string
			var long []byte
			for {
				line, err := Read(r, &long)
				if err == io.EOF {
					if len(line) > 0 {
						got = append(got, string(line)+" (EOF)")
					}
					break
				}
				if err != nil {
					t.Fatalf("%d-byte reader: %v", size, err)
				}
				got = append(got, string(line))
			}
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
				t.Fatalf("through a %d-byte reader:\n got %q\nwant %q", size, got, want)
			}
		}
	})
}
