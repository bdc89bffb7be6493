package sim

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// Report wire format.
//
// A Reading crosses the service as one NDJSON line holding exactly
// json.Marshal's encoding of the struct. At ~2,350 reports per tag
// window every report is decoded twice (router, shard) and encoded
// once (journal), so the service encodes and decodes that shape here,
// without reflection: AppendReading writes json.Marshal's bytes and
// ParseReading reads them. Whatever the fast paths do not cover is
// handed to encoding/json, so both functions are observably
// encoding/json — same bytes, same values, same error text — for every
// input (FuzzReadingCodec).

// AppendReading appends json.Marshal(rd) to dst: fields in struct
// order, an empty EPC omitted, floats in encoding/json's format. A
// NaN or ±Inf field is an error, as it is for json.Marshal; on error
// dst is returned unchanged.
func AppendReading(dst []byte, rd Reading) ([]byte, error) {
	if !plainEPC(rd.EPC) || !finite(rd.FreqHz) || !finite(rd.Phase) || !finite(rd.RSSI) {
		// Escaping and the unsupported-value error are json.Marshal's.
		b, err := json.Marshal(rd)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = append(dst, '{')
	if rd.EPC != "" {
		dst = append(dst, `"epc":"`...)
		dst = append(dst, rd.EPC...)
		dst = append(dst, `",`...)
	}
	dst = append(dst, `"antenna":`...)
	dst = strconv.AppendInt(dst, int64(rd.Antenna), 10)
	dst = append(dst, `,"channel":`...)
	dst = strconv.AppendInt(dst, int64(rd.Channel), 10)
	dst = append(dst, `,"freqHz":`...)
	dst = appendFloat(dst, rd.FreqHz)
	dst = append(dst, `,"phase":`...)
	dst = appendFloat(dst, rd.Phase)
	dst = append(dst, `,"rssi":`...)
	dst = appendFloat(dst, rd.RSSI)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(rd.T), 10)
	return append(dst, '}'), nil
}

// ParseReading decodes one report line as json.Unmarshal into a
// Reading would. The line AppendReading writes — exact key spelling
// and order, no whitespace, a plain EPC, JSON-grammar numbers with
// integer fields free of fraction and exponent — is parsed directly,
// with the strconv calls encoding/json makes. Anything else (unknown
// or case-variant keys, escapes, null, duplicate keys, 1.0 for an
// int, out-of-range numbers, malformed input) goes to json.Unmarshal,
// so values and error text are its own.
func ParseReading(raw []byte) (Reading, error) {
	if rd, ok := parseCanonical(raw); ok {
		return rd, nil
	}
	var rd Reading
	err := json.Unmarshal(raw, &rd)
	return rd, err
}

// parseCanonical is ParseReading's fast path; ok is false whenever
// the line is not in canonical shape or a number does not convert.
func parseCanonical(raw []byte) (rd Reading, ok bool) {
	c := cursor(raw)
	if !c.skip(`{`) {
		return rd, false
	}
	if c.skip(`"epc":"`) {
		n := 0
		for n < len(c) && c[n] != '"' {
			if !plainByte(c[n]) {
				return rd, false
			}
			n++
		}
		if n == len(c) {
			return rd, false
		}
		rd.EPC = string(c[:n])
		c = c[n+1:]
		if !c.skip(`,`) {
			return rd, false
		}
	}
	var ant, ch, t int64
	if !c.skip(`"antenna":`) || !c.parseInt(&ant, strconv.IntSize) ||
		!c.skip(`,"channel":`) || !c.parseInt(&ch, strconv.IntSize) ||
		!c.skip(`,"freqHz":`) || !c.parseFloat(&rd.FreqHz) ||
		!c.skip(`,"phase":`) || !c.parseFloat(&rd.Phase) ||
		!c.skip(`,"rssi":`) || !c.parseFloat(&rd.RSSI) ||
		!c.skip(`,"t":`) || !c.parseInt(&t, 64) ||
		string(c) != `}` {
		return rd, false
	}
	rd.Antenna, rd.Channel, rd.T = int(ant), int(ch), time.Duration(t)
	return rd, true
}

// cursor is the unread tail of a line under parseCanonical.
type cursor []byte

// skip consumes lit if the tail starts with it.
func (c *cursor) skip(lit string) bool {
	if len(*c) < len(lit) || string((*c)[:len(lit)]) != lit {
		return false
	}
	*c = (*c)[len(lit):]
	return true
}

// number consumes one JSON number and returns its text.
func (c *cursor) number() (lit []byte, ok bool) {
	b := *c
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	*c = b[i:]
	return b[:i], true
}

// parseInt consumes a number literal that ParseInt takes: an integer,
// no fraction or exponent, that fits in bits.
func (c *cursor) parseInt(dst *int64, bits int) bool {
	lit, ok := c.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	*dst = v
	return err == nil
}

// parseFloat consumes a number literal that converts to a finite float64.
func (c *cursor) parseFloat(dst *float64) bool {
	lit, ok := c.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}

// digits returns the index just past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// appendFloat formats f as encoding/json does: like ES6 number to
// string, 'f' form unless |f| < 1e-6 or |f| ≥ 1e21, with the 'e' form's
// exponent unpadded (e-09 → e-9).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// plainEPC reports whether every byte of epc is one json.Marshal
// writes verbatim and json.Unmarshal reads verbatim.
func plainEPC(epc string) bool {
	for i := 0; i < len(epc); i++ {
		if !plainByte(epc[i]) {
			return false
		}
	}
	return true
}

// plainByte is printable ASCII other than the bytes encoding/json
// escapes in a string: '"', '\\' and the HTML-sensitive '<', '>', '&'.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
