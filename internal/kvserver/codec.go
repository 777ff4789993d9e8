package kvserver

// The reply codec: writers that append straight into the connection's
// reply writer, which the line server sizes to lineserver.MaxLine and
// flushes once per read. A request's bytes are read once by the line
// server's framing, scanned once by its tokenizer, and a BPUT value is
// copied once more, by Tiered.Put, into the store's owned copy; a BGET
// reply copies the stored slice once, into the writer.

import (
	"bufio"
	"strconv"
)

// commands are the protocol's command words, upper case.
var commands = []string{"PUT", "GET", "DEL", "BPUT", "BGET", "BDEL", "LEN", "STATS", "QUIT"}

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
