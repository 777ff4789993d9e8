package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from /debug/pprof/profile is a gzipped profile.proto. The
// benchmark needs only each sample's stack of function names and its CPU
// time, so it decodes those fields of the protobuf wire format directly.

// stackSample is one profile sample: function names leaf first, and the
// sample's last value (CPU nanoseconds for a CPU profile).
type stackSample struct {
	frames []string
	value  int64
}

func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{value: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint's value, b a length-delimited field's bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// pkgOf returns the package path of a fully qualified function name such as
// "repro/internal/simmap.(*Map[...]).Put".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfPkg names the layer a package belongs to, or "" for runtime and
// library helpers whose time belongs to their caller.
func layerOfPkg(pkg string) string {
	switch pkg {
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll", "net", "os":
		return "net"
	case "repro/internal/kvserver", "main", "fmt", "strconv", "strings", "bufio", "bytes", "unicode/utf8":
		return "kvserver" // the server loop and its wire codec
	case "repro/internal/core", "repro/internal/backoff", "repro/internal/xatomic", "repro/internal/pad":
		return "core"
	case "runtime", "sync", "sync/atomic", "context", "runtime/pprof", "internal/bytealg", "internal/abi":
		return ""
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
		return ""
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		return layer // simmap, lsim, alloc, ingest, queue, spool, retention, obs
	}
	return "other"
}

// layerOf attributes one sample to a layer. Time under a garbage-collector
// root is "gc"; the network poller is "net"; otherwise the leaf-most frame
// outside the runtime and helper libraries decides, so memmove or mallocgc
// called from simmap counts as simmap. Stacks wholly inside the runtime
// (the scheduler, idle threads) are "runtime".
func layerOf(frames []string) string {
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.netpoll") || f == "runtime.epollwait" {
			return "net"
		}
		if l := layerOfPkg(pkgOf(f)); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerShares groups a profile's CPU time by layer, as fractions of the
// total.
func layerShares(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range out {
		out[k] /= max(total, 1)
	}
	return out
}
