package lineserver

import (
	"strconv"
	"strings"
	"testing"
)

// words is both daemons' command vocabulary.
var words = []string{"PUT", "GET", "DEL", "BPUT", "BGET", "BDEL", "LEN", "STATS", "QUIT", "PUB", "POLL", "HWM"}

// FuzzFields is the tokenizer's differential test: for any line, Fields
// must return strings.Fields's first MaxFields fields, Command must
// upper-case the first one as strings.ToUpper does, and ParseUint must
// agree with strconv.ParseUint on every field. Together they make every
// reply byte-identical to a handler built on the strings package.
func FuzzFields(f *testing.F) {
	f.Add([]byte("PUT a 1"))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got [MaxFields][]byte
		n := Fields(line, &got)
		want := strings.Fields(string(line))
		if len(want) > MaxFields {
			want = want[:MaxFields]
		}
		if n != len(want) {
			t.Fatalf("Fields(%q) = %d fields, strings.Fields gives %d: %q", line, n, len(want), want)
		}
		for i, w := range want {
			if string(got[i]) != w {
				t.Fatalf("Fields(%q)[%d] = %q, want %q", line, i, got[i], w)
			}
			v, ok := ParseUint(got[i])
			wv, err := strconv.ParseUint(w, 10, 64)
			if ok != (err == nil) || ok && v != wv {
				t.Fatalf("ParseUint(%q) = %d, %v; strconv gives %d, %v", w, v, ok, wv, err)
			}
		}
		if n > 0 {
			if c, w := Command(got[0], words), strings.ToUpper(want[0]); c != w {
				t.Fatalf("Command(%q) = %q, want %q", got[0], c, w)
			}
		}
	})
}

// TestPlain8 checks the word-at-a-time test against every byte value at
// every position of an otherwise plain word.
func TestPlain8(t *testing.T) {
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			x := uint64(0x6161616161616161) // "aaaaaaaa"
			x = x&^(0xff<<(8*pos)) | uint64(c)<<(8*pos)
			if want := c > 0x20 && c < 0x7f; plain8(x) != want {
				t.Fatalf("plain8 with byte %#x at %d = %v, want %v", c, pos, !want, want)
			}
		}
	}
}
