// Package lines frames the ASCII wires: the Remos protocol between the
// Modeler and the collectors, the text form of a graph it carries, and
// the directory protocol. All three follow one rule:
//
//   - a line ends at "\n"; a "\r" just before it belongs to the line end
//     too, so LF and CRLF read alike;
//   - at the end of input an unterminated tail is returned together with
//     io.EOF, as bufio.Reader.ReadString does, and the caller decides
//     whether a tail counts;
//   - a line, its end included, is at most Max bytes; a longer one is
//     refused with ErrTooLong after reading at most Max bytes and one
//     reader buffer, so a peer that never sends "\n" cannot make a reader
//     buffer without limit;
//   - fields are separated by runs of ASCII white space: space, \t, \n,
//     \v, \f and \r.
//
// Lines are read in place: a line aliases the bufio.Reader's buffer, or
// the caller's scratch when it is longer than that buffer, and is valid
// only until the next read.
package lines

import (
	"bufio"
	"errors"
)

// Max bounds one line, its end included: 16 MiB.
const Max = 16 << 20

// ErrTooLong refuses a line longer than Max.
var ErrTooLong = errors.New("lines: line longer than 16 MiB")

// Read returns the next line of r without its "\n" or "\r\n". A line
// longer than r's buffer is gathered into *scratch, which grows to at
// most Max and is reused by the next long line. Any read error is
// returned with what the line held so far; at the end of input that is
// the unterminated tail with io.EOF.
func Read(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := (*scratch)[:0]
		for {
			if len(buf)+len(line) > Max {
				return nil, ErrTooLong
			}
			buf = append(grow(buf, len(line)), line...)
			*scratch = buf
			if err != bufio.ErrBufferFull {
				break
			}
			line, err = r.ReadSlice('\n')
		}
		line = buf
	} else if len(line) > Max {
		return nil, ErrTooLong
	}
	if err == nil {
		line = line[:len(line)-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line, err
}

// grow makes room for n more bytes after buf's contents, doubling as
// append does but never past Max.
func grow(buf []byte, n int) []byte {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	bigger := make([]byte, len(buf), min(max(2*cap(buf), len(buf)+n), Max))
	copy(bigger, buf)
	return bigger
}

func space(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// Cut returns the first field of s and what follows it. field is nil
// when s holds no field.
func Cut(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) && space(s[i]) {
		i++
	}
	if i == len(s) {
		return nil, nil
	}
	j := i
	for j < len(s) && !space(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// Split puts the fields of line into dst, in place, and returns how many
// fields line has in all: a count above len(dst) says it has too many,
// and the ones past len(dst) are not kept.
func Split(line []byte, dst [][]byte) (n int) {
	for f, rest := Cut(line); f != nil; f, rest = Cut(rest) {
		if n < len(dst) {
			dst[n] = f
		}
		n++
	}
	return n
}
