package kvserver

// The request codec: one byte-level tokenizer for both serve loops, and
// reply writers that append straight into the connection's bufio.Writer.
// A request's bytes are read once by the framing, scanned once here, and a
// BPUT value is copied once more, by Tiered.Put, into the store's owned
// copy; a BGET reply copies the stored slice once, into the writer.

import (
	"bufio"
	"encoding/binary"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// maxFields caps how many fields a request line is split into. Every
// command takes at most three, so a fourth only has to be seen to tell
// "too many" apart from "exactly three".
const maxFields = 4

// replyBufSize sizes each connection's reply writer to hold a
// maximum-length reply. The unpipelined framing refuses lines over
// bufio.MaxScanTokenSize, so no BPUT stores a longer value and every
// unpipelined reply, a BGET's included, reaches the connection in a single
// Write.
const replyBufSize = bufio.MaxScanTokenSize

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Word-at-a-time masks: lows has 0x01 in every byte, highs 0x80.
const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// plain8 reports whether all eight bytes of x lie in 0x21..0x7e: printable,
// non-space ASCII, so none of them can end a field. x itself flags a byte
// of 0x80 or above; below that, x-0x21 borrows into a byte's top bit
// exactly when the byte is under 0x21, and x+1 carries into it exactly
// when the byte is 0x7f. A borrow or carry can cross into the next byte
// only from a byte that is already flagged, so the test is exact.
func plain8(x uint64) bool {
	return (x|(x-0x21*lows)|(x+lows))&highs == 0
}

// fields splits line around runs of white space, exactly as strings.Fields
// does, into f and returns the field count, stopping after maxFields. It
// makes one pass over line: inside a field it skips eight plain bytes at a
// time and decodes a rune only at a byte that is a control, space, DEL or
// non-ASCII. A non-ASCII rune separates fields exactly when unicode.IsSpace
// says so; invalid UTF-8 never does. The fields alias line.
func fields(line []byte, f *[maxFields][]byte) int {
	n, i := 0, 0
	for n < maxFields {
		i = skipSpace(line, i)
		if i == len(line) {
			break
		}
		start := i
		i = fieldEnd(line, i)
		f[n] = line[start:i]
		n++
	}
	return n
}

// isSpaceAt reports whether b[i] starts a white-space rune, and that rune's
// width.
func isSpaceAt(b []byte, i int) (space bool, width int) {
	if c := b[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, w := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), w
}

// skipSpace returns the index of the first non-space rune at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		space, w := isSpaceAt(b, i)
		if !space {
			break
		}
		i += w
	}
	return i
}

// fieldEnd returns the index of the first space rune at or after i, or
// len(b).
func fieldEnd(b []byte, i int) int {
	for {
		for i+8 <= len(b) && plain8(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		if i == len(b) {
			return i
		}
		space, w := isSpaceAt(b, i)
		if space {
			return i
		}
		i += w
	}
}

// commands are the protocol's command words, upper case.
var commands = [...]string{"PUT", "GET", "DEL", "BPUT", "BGET", "BDEL", "LEN", "STATS", "QUIT"}

// command returns tok upper-cased exactly as strings.ToUpper would. A known
// ASCII command word, in any case, costs no allocation.
func command(tok []byte) string {
	var up [5]byte
	if len(tok) <= len(up) {
		ascii := true
		for i, c := range tok {
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
		if ascii {
			for _, c := range commands {
				if string(up[:len(tok)]) == c {
					return c
				}
			}
		}
	}
	return strings.ToUpper(string(tok))
}

// parseUint parses b as strconv.ParseUint(string(b), 10, 64) does, without
// the conversion: one or more decimal digits, no sign, at most MaxUint64.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// lookupKey views b as a string without copying. Use it only for a lookup
// that does not keep its key once it returns (Get, MGet, Tiered.Get): b's
// bytes belong to the read buffer and change with the next request. Keys
// a store may keep (PUT, DEL, BPUT, BDEL) are copied with string(b).
func lookupKey(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// writeLine writes s and a newline.
func writeLine(w *bufio.Writer, s string) {
	w.WriteString(s)
	w.WriteByte('\n')
}

// writeUint writes prefix, v in decimal and a newline, appended in place
// into w's free space.
func writeUint(w *bufio.Writer, prefix string, v uint64) {
	b := append(w.AvailableBuffer(), prefix...)
	b = strconv.AppendUint(b, v, 10)
	w.Write(append(b, '\n'))
}

// lineBatch holds the request lines of one pipelined batch back to back in
// buf, line k ending at ends[k]. Both slices are reused, so a steady
// connection reads its batches without allocating.
type lineBatch struct {
	buf  []byte
	ends []int
}

func (b *lineBatch) reset() {
	b.buf = b.buf[:0]
	b.ends = b.ends[:0]
}

func (b *lineBatch) len() int { return len(b.ends) }

func (b *lineBatch) line(k int) []byte {
	start := 0
	if k > 0 {
		start = b.ends[k-1]
	}
	return b.buf[start:b.ends[k]]
}

// readLine appends the next line of r, its '\n' included, with
// bufio.Reader.ReadString's contract: a line of any length, and on error
// the bytes read before it (no line is added when there were none).
func (b *lineBatch) readLine(r *bufio.Reader) error {
	start := len(b.buf)
	for {
		frag, err := r.ReadSlice('\n')
		b.buf = append(b.buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if len(b.buf) > start {
			b.ends = append(b.ends, len(b.buf))
		}
		return err
	}
}
