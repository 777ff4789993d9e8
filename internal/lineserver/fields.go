package lineserver

// The request tokenizer both daemons parse with: one single-pass,
// byte-level split that agrees with strings.Fields, a command-word folder
// that agrees with strings.ToUpper, and a decimal parser that agrees with
// strconv.ParseUint, none of which allocate on the common path.

import (
	"encoding/binary"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// MaxFields caps how many fields Fields splits a line into. Every command
// of both protocols takes at most three arguments, so a fifth field only
// has to be seen to tell "too many" apart from "exactly four".
const MaxFields = 5

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

// Fields splits line around runs of white space, exactly as strings.Fields
// does, into f and returns the field count, stopping after MaxFields. It
// makes one pass over line: inside a field it skips eight plain bytes at a
// time and decodes a rune only at a byte that is a control, space, DEL or
// non-ASCII. A non-ASCII rune separates fields exactly when unicode.IsSpace
// says so; invalid UTF-8 never does. The fields alias line.
func Fields(line []byte, f *[MaxFields][]byte) int {
	n, i := 0, 0
	for n < MaxFields {
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

// Command returns tok upper-cased exactly as strings.ToUpper would. When
// the result is one of words (upper case, at most eight bytes each) and tok
// is ASCII, it returns that word and costs no allocation.
func Command(tok []byte, words []string) string {
	var up [8]byte
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
			for _, w := range words {
				if string(up[:len(tok)]) == w {
					return w
				}
			}
		}
	}
	return strings.ToUpper(string(tok))
}

// ParseUint parses b as strconv.ParseUint(string(b), 10, 64) does, without
// the conversion: one or more decimal digits, no sign, at most MaxUint64.
func ParseUint(b []byte) (uint64, bool) {
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

// LookupKey views b as a string without copying. Use it only for a lookup
// that does not keep its key once it returns: b's bytes belong to the read
// buffer and change with the next batch. Keys a store may keep are copied
// with string(b).
func LookupKey(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
