package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The graph document is the JSON form of a Graph: node count, identifiers,
// weights and an undirected edge list (each edge once, u < v):
//
//	{"n":3,"ids":[1,2,3],"weights":[5,1,7],"edges":[[0,1],[1,2]]}
//
// DecodeJSON accepts what encoding/json accepted for this document (a
// struct with those four fields), with two exceptions: a key may not appear
// twice (encoding/json kept the last), and nothing but whitespace may follow
// the document (a json.Decoder stopped reading at its end). In detail:
//
//   - the document is one object, or null for the empty graph;
//   - keys are matched to "n", "ids", "weights" and "edges" as encoding/json
//     matches struct fields: escapes decoded, case ignored (bytes.EqualFold);
//     the value of any other key is checked as JSON and skipped;
//   - "n" is an integer; "ids", "weights" and "edges" are arrays or null
//     (null, like an absent or empty "ids"/"weights", selects the defaults
//     1..n and unit weights);
//   - every number slot holds an integer in its range (uint64 ids, int64
//     weights, int32 endpoints; no fractions, exponents or strings) or null,
//     which reads as 0;
//   - an edge is an array whose first two elements are its endpoints; a
//     missing endpoint is 0 and further elements are checked and skipped,
//     as encoding/json filled a [2]int32; a null edge is [0,0];
//   - no value nests inside more than 10,000 arrays and objects, counting
//     its own (encoding/json's limit).

// ErrTooManyNodes reports a document whose node count exceeds the bound
// the caller passed to DecodeJSON. It is detected before anything of the
// graph is allocated.
var ErrTooManyNodes = errors.New("graph: too many nodes")

// maxDocNodes is the node count the CSR representation can index: offsets
// are int32 and there are n+1 of them.
const maxDocNodes = math.MaxInt32 - 1

// maxDepth is encoding/json's nesting limit on arrays and objects.
const maxDepth = 10000

// AppendJSON appends g's document, followed by a newline, to dst. The
// bytes are exactly what encoding/json's Encoder writes for the document;
// ids and weights are omitted only for the empty graph.
func (g *Graph) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, int64(g.N()), 10)
	if g.N() > 0 {
		dst = append(dst, `,"ids":[`...)
		for v, id := range g.ids {
			if v > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, id, 10)
		}
		dst = append(dst, `],"weights":[`...)
		for v, w := range g.weights {
			if v > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, w, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":[`...)
	sep := false
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) <= v {
				continue
			}
			if sep {
				dst = append(dst, ',')
			}
			sep = true
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(v), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(u), 10)
			dst = append(dst, ']')
		}
	}
	return append(dst, "]}\n"...)
}

// WriteJSON writes g's document (AppendJSON) to w. It is what cmd/graphgen
// emits.
func (g *Graph) WriteJSON(w io.Writer) error {
	if _, err := w.Write(g.AppendJSON(nil)); err != nil {
		return fmt.Errorf("graph: encode: %w", err)
	}
	return nil
}

// ReadJSON reads all of r and decodes it with DecodeJSON under the node
// bound maxNodes.
func ReadJSON(r io.Reader, maxNodes int) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return DecodeJSON(data, maxNodes)
}

// DecodeJSON parses one graph document in a single pass and builds it with
// the Builder's checks (negative weights, duplicate ids, self-loops,
// out-of-range edges). maxNodes > 0 bounds n: a larger document fails with
// ErrTooManyNodes before anything is allocated; maxNodes <= 0 leaves only
// the representation's bound. Missing ids/weights fall back to the builder
// defaults (1..n, unit weights).
func DecodeJSON(data []byte, maxNodes int) (*Graph, error) {
	if maxNodes <= 0 || maxNodes > maxDocNodes {
		maxNodes = maxDocNodes
	}
	d := decoder{data: data, maxNodes: maxNodes}
	if err := d.document(); err != nil {
		return nil, err
	}
	n := d.n
	if len(d.ids) != 0 && len(d.ids) != n {
		return nil, fmt.Errorf("graph: %d ids for %d nodes", len(d.ids), n)
	}
	if len(d.weights) != 0 && len(d.weights) != n {
		return nil, fmt.Errorf("graph: %d weights for %d nodes", len(d.weights), n)
	}
	b := &Builder{n: n, ids: d.ids, weights: d.weights, edges: d.edges}
	b.fillDefaults()
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: rebuild: %w", err)
	}
	return g, nil
}

// decoder is the single-pass parser behind DecodeJSON. It reads the
// document's values straight into the slices the Builder adopts.
type decoder struct {
	data     []byte
	pos      int
	maxNodes int
	seen     uint8 // keys read so far (seenN, ...)
	n        int
	ids      []uint64
	weights  []int64
	edges    [][2]int32
}

// docKeys are the document's keys; key i has the seen bit 1<<i.
var docKeys = [...]string{"n", "ids", "weights", "edges"}

const (
	seenN = 1 << iota
	seenIDs
	seenWeights
	seenEdges
)

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("graph: decode: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace and returns the next byte (0 at the end).
func (d *decoder) ws() byte {
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.pos = i
			return c
		}
	}
	d.pos = len(d.data)
	return 0
}

// expect consumes c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.ws() != c {
		return d.unexpected(string(c))
	}
	d.pos++
	return nil
}

func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of document, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.pos], want)
}

// lit consumes the literal s if the data at d.pos starts with it.
func (d *decoder) lit(s string) bool {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(s)) {
		return false
	}
	d.pos += len(s)
	return true
}

// null consumes a null after optional whitespace, if one is next.
func (d *decoder) null() bool {
	return d.ws() == 'n' && d.lit("null")
}

func (d *decoder) document() error {
	if !d.null() {
		if err := d.list('{', '}', d.member); err != nil {
			return err
		}
	}
	if d.ws(); d.pos < len(d.data) {
		return d.errorf("trailing data after the document")
	}
	return nil
}

// member reads one "key": value pair.
func (d *decoder) member() error {
	if err := d.expect('"'); err != nil {
		return err
	}
	start := d.pos
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	if err := d.expect(':'); err != nil {
		return err
	}
	bit := keyBit(raw, escaped)
	if bit == 0 {
		return d.skip(1)
	}
	if d.seen&bit != 0 {
		d.pos = start
		return d.errorf("duplicate key %q", raw)
	}
	d.seen |= bit
	switch bit {
	case seenN:
		n, err := d.int(math.MinInt64, math.MaxInt64)
		if err != nil {
			return err
		}
		if n < 0 {
			return d.errorf("negative node count %d", n)
		}
		if n > int64(d.maxNodes) {
			return fmt.Errorf("%w: n=%d exceeds the bound %d", ErrTooManyNodes, n, d.maxNodes)
		}
		d.n = int(n)
		return nil
	case seenIDs:
		return d.array(func() error {
			id, err := d.uint()
			d.ids = appendSized(d.ids, d.n, id)
			return err
		})
	case seenWeights:
		return d.array(func() error {
			w, err := d.int(math.MinInt64, math.MaxInt64)
			d.weights = appendSized(d.weights, d.n, w)
			return err
		})
	default:
		return d.array(func() error {
			if d.edges == nil {
				// An edge takes at least six bytes ("[0,1],"); real
				// documents with multi-digit endpoints take about twice that.
				d.edges = make([][2]int32, 0, (len(d.data)-d.pos)/12+1)
			}
			e, err := d.edge()
			d.edges = append(d.edges, e)
			return err
		})
	}
}

// edge reads one entry of "edges": null, or an array whose first two
// elements are the endpoints. (It is list unrolled, with no closure call
// per endpoint: this loop reads every edge of every document.)
func (d *decoder) edge() ([2]int32, error) {
	var e [2]int32
	switch c := d.ws(); {
	case c == 'n' && d.lit("null"):
		return e, nil
	case c != '[':
		return e, d.unexpected("'['")
	}
	if d.pos++; d.ws() == ']' {
		d.pos++
		return e, nil
	}
	for k := 0; ; k++ {
		if k < 2 {
			x, err := d.int(math.MinInt32, math.MaxInt32)
			if err != nil {
				return e, err
			}
			e[k] = int32(x)
		} else if err := d.skip(3); err != nil { // inside the object, "edges" and this entry
			return e, err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return e, nil
		default:
			return e, d.unexpected("',' or ']'")
		}
	}
}

// appendSized appends x to s, allocating s with room for the n nodes a
// per-node array holds when "n" came first. (On a parse error the decode
// fails, so what x then holds does not matter.)
func appendSized[T any](s []T, n int, x T) []T {
	if s == nil && n > 0 {
		s = make([]T, 0, n)
	}
	return append(s, x)
}

// list reads open, then elements separated by commas, then close; elem
// reads one element.
func (d *decoder) list(open, close byte, elem func() error) error {
	if err := d.expect(open); err != nil {
		return err
	}
	if d.ws() == close {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case close:
			d.pos++
			return nil
		default:
			return d.unexpected(fmt.Sprintf("',' or '%c'", close))
		}
	}
}

// array reads null or a JSON array (see list).
func (d *decoder) array(elem func() error) error {
	if d.null() {
		return nil
	}
	return d.list('[', ']', elem)
}

// str reads the rest of a string whose opening quote d.pos is past and
// returns its raw contents, checked as encoding/json checks them: no
// control characters, only JSON escapes. escaped reports an escape.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	start := d.pos
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], escaped, nil
		case c < 0x20:
			d.pos = i
			return nil, false, d.errorf("control character in string")
		case c == '\\':
			escaped = true
			if i+1 < len(d.data) && strings.IndexByte(`"\/bfnrt`, d.data[i+1]) >= 0 {
				i++
			} else if _, ok := hex4(d.data[i+1:]); ok && d.data[i+1] == 'u' {
				i += 5
			} else {
				d.pos = i
				return nil, false, d.errorf("invalid escape in string")
			}
		}
	}
	d.pos = len(d.data)
	return nil, false, d.unexpected(`'"'`)
}

// hex4 decodes the four hex digits after the 'u' at b[0].
func hex4(b []byte) (rune, bool) {
	if len(b) < 5 {
		return 0, false
	}
	var r rune
	for _, c := range b[1:5] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// keyBit returns the seen bit of the document key whose raw string contents
// are raw, or 0 for a key the document does not use.
func keyBit(raw []byte, escaped bool) uint8 {
	key := raw
	if escaped {
		key = unescape(raw)
	}
	for i, k := range docKeys {
		if bytes.EqualFold(key, []byte(k)) {
			return 1 << i
		}
	}
	return 0
}

// unescape decodes the escapes of raw string contents that str checked. A
// \u escape of a UTF-16 surrogate, paired or not, becomes U+FFFD; that
// differs from encoding/json only for characters outside the Basic
// Multilingual Plane, none of which folds to a letter of a key.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch c = raw[i]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, _ := hex4(raw[i:])
			out = utf8.AppendRune(out, r)
			i += 4
		default: // '"', '\\' or '/'
			out = append(out, c)
		}
	}
	return out
}

// skip checks and skips one JSON value of any kind: the value of a key the
// document does not use, or an edge's surplus element. depth is the number
// of arrays and objects around it.
func (d *decoder) skip(depth int) error {
	switch d.ws() {
	case '[', '{':
		if depth >= maxDepth {
			return d.errorf("nesting deeper than %d", maxDepth)
		}
		if d.data[d.pos] == '[' {
			return d.list('[', ']', func() error { return d.skip(depth + 1) })
		}
		return d.list('{', '}', func() error {
			if err := d.expect('"'); err != nil {
				return err
			}
			if _, _, err := d.str(); err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			return d.skip(depth + 1)
		})
	case '"':
		d.pos++
		_, _, err := d.str()
		return err
	case 't', 'f', 'n':
		if d.lit("true") || d.lit("false") || d.lit("null") {
			return nil
		}
		return d.unexpected("a JSON value")
	}
	return d.number()
}

// number checks and skips a JSON number of any form.
func (d *decoder) number() error {
	d.lit("-")
	if !d.lit("0") && d.run() == 0 {
		return d.unexpected("a JSON value")
	}
	if d.lit(".") && d.run() == 0 {
		return d.unexpected("a digit")
	}
	if d.lit("e") || d.lit("E") {
		if !d.lit("+") {
			d.lit("-")
		}
		if d.run() == 0 {
			return d.unexpected("a digit")
		}
	}
	return nil
}

// run consumes a run of decimal digits and returns its length.
func (d *decoder) run() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos]-'0' <= 9 {
		d.pos++
	}
	return d.pos - start
}

// digits reads the digits of a JSON integer (no leading zeros) at d.pos
// and checks the value against limit. It rejects a fraction or exponent
// after them: every number of the document is an integer.
func (d *decoder) digits(limit uint64) (uint64, error) {
	start, i := d.pos, d.pos
	var x uint64
	for ; i < len(d.data); i++ {
		c := d.data[i] - '0'
		if c > 9 {
			break
		}
		x = x*10 + uint64(c)
	}
	d.pos = i
	switch nd := d.pos - start; {
	case nd == 0:
		return 0, d.unexpected("an integer")
	case nd > 1 && d.data[start] == '0':
		d.pos = start
		return 0, d.errorf("leading zero in number")
	case nd >= 20:
		// Up to 19 digits always fit in a uint64; longer runs may have
		// wrapped, so parse them again with overflow detection.
		var err error
		if x, err = strconv.ParseUint(string(d.data[start:d.pos]), 10, 64); err != nil {
			d.pos = start
			return 0, d.errorf("number out of range")
		}
	}
	if x > limit {
		d.pos = start
		return 0, d.errorf("number out of range")
	}
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '.', 'e', 'E':
			return 0, d.errorf("number is not an integer")
		}
	}
	return x, nil
}

// int reads a JSON integer in [lo, hi] (lo < 0 < hi) after optional
// whitespace. null reads as 0: encoding/json left the zero value in place.
func (d *decoder) int(lo, hi int64) (int64, error) {
	switch d.ws() {
	case 'n':
		if d.lit("null") {
			return 0, nil
		}
	case '-':
		d.pos++
		x, err := d.digits(uint64(-(lo + 1)) + 1)
		return -int64(x), err
	}
	x, err := d.digits(uint64(hi))
	return int64(x), err
}

// uint reads a non-negative JSON integer that fits in uint64, or null as
// 0, after optional whitespace.
func (d *decoder) uint() (uint64, error) {
	if d.null() {
		return 0, nil
	}
	return d.digits(math.MaxUint64)
}
