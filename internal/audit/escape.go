package audit

import "unicode/utf8"

// appendString appends s as a JSON string, quoted and escaped byte for
// byte as encoding/json does (HTML escaping on).
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends the body of s's JSON string encoding, matching
// encoding/json: '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t in
// their short forms; other control bytes and the HTML-significant '<',
// '>' and '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and
// each byte of invalid UTF-8 as \ufffd.
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		for i+8 <= len(s) && safeWord(load64(s, i)) {
			i += 8
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if safe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode at most one rune's bytes through a string conversion
		// small enough to stay on the stack.
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

const hex = "0123456789abcdef"

// Byte-lane constants for safeWord: every byte 0x01, and every byte 0x80.
const (
	lanes    = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// safeWord reports whether all eight bytes of w are in safe, so
// appendEscaped skips a safe run a word at a time: no byte is below 0x20
// or from 0x80 up, and none is '"', '\\', '<', '>' or '&'. Each test sets
// a lane's high bit for a byte it flags; borrows can flag extra lanes
// only above a flagged one, so the answer for the word is exact.
func safeWord(w uint64) bool {
	bad := w | (w - 0x20*lanes) // from 0x80, or below 0x20
	bad |= laneIs(w, '"') | laneIs(w, '\\') | laneIs(w, '<') | laneIs(w, '>') | laneIs(w, '&')
	return bad&laneHigh == 0
}

// laneIs sets the high bit of the lanes of w holding byte c.
func laneIs(w, c uint64) uint64 {
	x := w ^ (c * lanes)
	return (x - lanes) &^ x
}

// load64 reads s[i:i+8] as a little-endian word.
func load64[S string | []byte](s S, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// safe marks the bytes appendEscaped copies through unchanged: printable
// ASCII except '"', '\\', '<', '>' and '&' — encoding/json's htmlSafeSet.
// Bytes from 0x80 up start a multi-byte rune and are decoded instead.
var safe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()
