package kvserver

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzFields is the codec's differential test: for any line, fields must
// return strings.Fields's first maxFields fields, command must upper-case
// the first one as strings.ToUpper does, and parseUint must agree with
// strconv.ParseUint on every field. Together they make every reply
// byte-identical to a handler built on the strings package.
func FuzzFields(f *testing.F) {
	f.Add([]byte("PUT a 1"))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got [maxFields][]byte
		n := fields(line, &got)
		want := strings.Fields(string(line))
		if len(want) > maxFields {
			want = want[:maxFields]
		}
		if n != len(want) {
			t.Fatalf("fields(%q) = %d fields, strings.Fields gives %d: %q", line, n, len(want), want)
		}
		for i, w := range want {
			if string(got[i]) != w {
				t.Fatalf("fields(%q)[%d] = %q, want %q", line, i, got[i], w)
			}
			v, ok := parseUint(got[i])
			wv, err := strconv.ParseUint(w, 10, 64)
			if ok != (err == nil) || ok && v != wv {
				t.Fatalf("parseUint(%q) = %d, %v; strconv gives %d, %v", w, v, ok, wv, err)
			}
		}
		if n > 0 {
			if c, w := command(got[0]), strings.ToUpper(want[0]); c != w {
				t.Fatalf("command(%q) = %q, want %q", got[0], c, w)
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

// TestCommandFolding pins the upper-casing corner cases: ASCII commands in
// any case, and non-ASCII words that strings.ToUpper folds onto a command
// word (so the server still serves them) or leaves unknown.
func TestCommandFolding(t *testing.T) {
	for _, w := range []string{
		"put", "Get", "dEl", "bput", "BGET", "bdel", "len", "stats", "quit",
		"quıt", "ſtatſ", "puts", "statsx", "x", "é", "\xff", "ǆ",
	} {
		if got, want := command([]byte(w)), strings.ToUpper(w); got != want {
			t.Errorf("command(%q) = %q, want %q", w, got, want)
		}
	}
}
