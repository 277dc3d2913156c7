package httpx

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The vector endpoints' codec. A /query or /insert body is mostly one
// array of numbers, and encoding/json decodes it through reflection with
// an allocation per few elements; at d = 960 that costs more than the
// query. DecodeRequest scans the canonical body shape directly and hands
// everything else to encoding/json on the same bytes, so what a client
// can send, the values it decodes to and every 400 body are unchanged.
// WriteReply appends a reply with encoding/json's number formatting, so
// the reply bytes are unchanged too. Both keep their buffers in pools.

// maxPooledBytes bounds the buffers kept for reuse: a 64 MiB batch body is
// read once and then left to the collector rather than held by a pool.
const maxPooledBytes = 1 << 20

// Field binds one JSON key of a request body to the struct field its
// value goes to, for DecodeRequest's canonical path. Build one with
// IntField, IntPtrField, Float64Field, VectorField or VectorsField.
type Field struct {
	key string
	// dst is a *int, **int, *float64, *[]float32 or *[][]float32.
	dst interface{}
}

// IntField binds key to an int.
func IntField(key string, dst *int) Field { return Field{key, dst} }

// IntPtrField binds key to a *int that stays nil when the key is absent
// or null.
func IntPtrField(key string, dst **int) Field { return Field{key, dst} }

// Float64Field binds key to a float64.
func Float64Field(key string, dst *float64) Field { return Field{key, dst} }

// VectorField binds key to a []float32.
func VectorField(key string, dst *[]float32) Field { return Field{key, dst} }

// VectorsField binds key to a [][]float32.
func VectorsField(key string, dst *[][]float32) Field { return Field{key, dst} }

// reset zeroes the destination, undoing a partial canonical decode.
func (f Field) reset() {
	switch dst := f.dst.(type) {
	case *int:
		*dst = 0
	case **int:
		*dst = nil
	case *float64:
		*dst = 0
	case *[]float32:
		*dst = nil
	case *[][]float32:
		*dst = nil
	}
}

// Fields returns own followed by the plan's seven body keys: the field
// table of a request type that embeds QueryPlan.
func (p *QueryPlan) Fields(own ...Field) []Field {
	return append(own,
		Float64Field("recall", &p.TargetRecall),
		IntField("probes", &p.Probes),
		IntField("tables", &p.Tables),
		IntField("hier_min", &p.HierMinCandidates),
		IntField("rerank", &p.RerankFactor),
		IntField("stable_probes", &p.StableProbes),
		IntField("max_candidates", &p.MaxCandidates))
}

// QueryRequest is the /query body the router forwards to every shard it
// contacts. The shard server decodes it as a type of its own defined on
// this one, because encoding/json names the decoded type in its 400
// bodies.
type QueryRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
	QueryPlan
}

// InsertRequest is a shard server's /insert body, which the router sends
// to the owning shard. ID is the caller-assigned global id, only
// meaningful on a shard with an id map; omitted, the shard assigns one.
// It is an alias of an unnamed struct, not a defined type: encoding/json
// names the decoded type in its 400 bodies, and for this body they have
// always named none ("Go struct field .id").
type InsertRequest = struct {
	Vector []float32 `json:"vector"`
	ID     *int      `json:"id"`
}

// InsertFields is InsertRequest's field table for DecodeRequest.
func InsertFields(q *InsertRequest) []Field {
	return []Field{VectorField("vector", &q.Vector), IntPtrField("id", &q.ID)}
}

// DecodeRequest is DecodeBody for a request whose JSON keys are all in
// fields, which point into dst. The capped body is read into a pooled
// buffer. A body in canonical shape — one object whose keys are exact
// field keys, each at most once, without escapes, holding JSON numbers or
// arrays of them that fit their fields, or null for an IntPtrField — is
// decoded by DecodeCanonical without reflection. Anything else is decoded
// by encoding/json with unknown fields disallowed, from the same bytes
// followed by the same read error, so acceptance, decoded values and 400
// bodies are DecodeBody's. dst must be zero on entry.
func DecodeRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, dst interface{}, fields []Field) bool {
	rb := bodyPool.Get().(*requestBuf)
	defer rb.release()
	err := rb.read(http.MaxBytesReader(w, r.Body, maxBytes), r.ContentLength)
	if err == nil && rb.decode(fields) {
		return true
	}
	for _, f := range fields {
		f.reset()
	}
	var src io.Reader = bytes.NewReader(rb.body)
	if err != nil {
		src = io.MultiReader(src, failingReader{err})
	}
	return decodeStrict(w, src, dst)
}

// DecodeCanonical decodes body into fields if it has the canonical shape
// DecodeRequest describes, and reports whether it did. When it reports
// false the destinations may hold part of the body.
func DecodeCanonical(body []byte, fields []Field) bool {
	rb := requestBuf{body: body}
	return rb.decode(fields)
}

// failingReader replays the error the capped body read ended with.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// requestBuf is one pooled request: the body and the scratch its arrays
// are parsed into before they are copied out at their exact length.
type requestBuf struct {
	body []byte
	pos  int
	// floats holds the elements of the array being decoded; rows the
	// element count of each inner array of a VectorsField.
	floats []float32
	rows   []int
}

var bodyPool = sync.Pool{New: func() interface{} { return new(requestBuf) }}

// release returns rb to the pool unless a large body grew its buffers.
func (rb *requestBuf) release() {
	if cap(rb.body) > maxPooledBytes || cap(rb.floats)*4 > maxPooledBytes || cap(rb.rows)*8 > maxPooledBytes {
		return
	}
	bodyPool.Put(rb)
}

// read fills rb.body from body. A Content-Length sizes the buffer once,
// but only up to maxPooledBytes: a larger claim is not trusted with
// memory before its bytes arrive.
func (rb *requestBuf) read(body io.Reader, contentLength int64) error {
	rb.body = rb.body[:0]
	if contentLength > 0 {
		if want := int(min(contentLength, maxPooledBytes)) + 1; cap(rb.body) < want {
			rb.body = make([]byte, 0, want)
		}
	}
	for {
		if len(rb.body) == cap(rb.body) {
			rb.body = append(rb.body, 0)[:len(rb.body)]
		}
		n, err := body.Read(rb.body[len(rb.body):cap(rb.body)])
		rb.body = rb.body[:len(rb.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode is DecodeCanonical on rb.body.
func (rb *requestBuf) decode(fields []Field) bool {
	rb.pos = 0
	rb.space()
	if !rb.eat('{') {
		return false
	}
	rb.space()
	if rb.eat('}') {
		return rb.end()
	}
	var seen uint64
	for {
		i := rb.key(fields)
		if i < 0 || i >= 64 || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		rb.space()
		if !rb.eat(':') {
			return false
		}
		rb.space()
		if !rb.value(fields[i]) {
			return false
		}
		rb.space()
		if rb.eat('}') {
			return rb.end()
		}
		if !rb.eat(',') {
			return false
		}
		rb.space()
	}
}

// end reports whether only whitespace follows the object. encoding/json
// ignores what follows, but declining costs nothing and keeps this path
// narrow.
func (rb *requestBuf) end() bool {
	rb.space()
	return rb.pos == len(rb.body)
}

// space skips JSON whitespace.
func (rb *requestBuf) space() {
	for rb.pos < len(rb.body) {
		switch rb.body[rb.pos] {
		case ' ', '\t', '\n', '\r':
			rb.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (rb *requestBuf) eat(c byte) bool {
	if rb.pos < len(rb.body) && rb.body[rb.pos] == c {
		rb.pos++
		return true
	}
	return false
}

// key consumes a quoted key and returns the index of the field it names
// exactly, or -1. A key with an escape never matches: encoding/json would
// unescape it first.
func (rb *requestBuf) key(fields []Field) int {
	if !rb.eat('"') {
		return -1
	}
	start := rb.pos
	for rb.pos < len(rb.body) {
		switch rb.body[rb.pos] {
		case '\\':
			return -1
		case '"':
			k := rb.body[start:rb.pos]
			rb.pos++
			for i, f := range fields {
				if string(k) == f.key {
					return i
				}
			}
			return -1
		}
		rb.pos++
	}
	return -1
}

// value decodes one value into f, or reports false without consuming a
// defined amount.
func (rb *requestBuf) value(f Field) bool {
	switch dst := f.dst.(type) {
	case *int:
		n, ok := rb.int()
		*dst = n
		return ok
	case **int:
		if rb.literal("null") {
			// What json.Marshal writes for a nil *int; the pointer stays
			// nil, as encoding/json leaves it.
			return true
		}
		n, ok := rb.int()
		*dst = &n
		return ok
	case *float64:
		lit, _ := rb.number()
		if lit == nil {
			return false
		}
		x, err := strconv.ParseFloat(string(lit), 64)
		*dst = x
		return err == nil
	case *[]float32:
		rb.floats = rb.floats[:0]
		if !rb.array() {
			return false
		}
		*dst = append(make([]float32, 0, len(rb.floats)), rb.floats...)
	case *[][]float32:
		rb.floats, rb.rows = rb.floats[:0], rb.rows[:0]
		if !rb.arrays() {
			return false
		}
		flat := append(make([]float32, 0, len(rb.floats)), rb.floats...)
		out := make([][]float32, len(rb.rows))
		off := 0
		for i, n := range rb.rows {
			out[i] = flat[off : off+n : off+n]
			off += n
		}
		*dst = out
	}
	return true
}

// int consumes an integer literal that fits an int; a fraction or
// exponent is a type error to encoding/json, so it declines those.
func (rb *requestBuf) int() (int, bool) {
	lit, integer := rb.number()
	if !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// array appends the elements of one array of numbers to rb.floats, each
// parsed at float32 width.
func (rb *requestBuf) array() bool {
	if !rb.eat('[') {
		return false
	}
	rb.space()
	if rb.eat(']') {
		return true
	}
	for {
		lit, _ := rb.number()
		if lit == nil {
			return false
		}
		x, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return false
		}
		rb.floats = append(rb.floats, float32(x))
		rb.space()
		if rb.eat(']') {
			return true
		}
		if !rb.eat(',') {
			return false
		}
		rb.space()
	}
}

// arrays decodes an array of arrays of numbers, recording each inner
// array's length in rb.rows.
func (rb *requestBuf) arrays() bool {
	if !rb.eat('[') {
		return false
	}
	rb.space()
	if rb.eat(']') {
		return true
	}
	for {
		n := len(rb.floats)
		if !rb.array() {
			return false
		}
		rb.rows = append(rb.rows, len(rb.floats)-n)
		rb.space()
		if rb.eat(']') {
			return true
		}
		if !rb.eat(',') {
			return false
		}
		rb.space()
	}
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// (nil when there is none) and whether it has neither fraction nor
// exponent. What may follow it is left to the caller.
func (rb *requestBuf) number() (lit []byte, integer bool) {
	start := rb.pos
	rb.eat('-')
	switch {
	case rb.eat('0'):
	case rb.digits() == 0:
		return nil, false
	}
	integer = true
	if rb.eat('.') {
		if rb.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	if rb.eat('e') || rb.eat('E') {
		if !rb.eat('+') {
			rb.eat('-')
		}
		if rb.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	return rb.body[start:rb.pos], integer
}

// literal consumes s if it is next.
func (rb *requestBuf) literal(s string) bool {
	if !bytes.HasPrefix(rb.body[rb.pos:], []byte(s)) {
		return false
	}
	rb.pos += len(s)
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (rb *requestBuf) digits() int {
	start := rb.pos
	for rb.pos < len(rb.body) && '0' <= rb.body[rb.pos] && rb.body[rb.pos] <= '9' {
		rb.pos++
	}
	return rb.pos - start
}

// Reply is the buffer a reply type appends its JSON encoding to.
type Reply struct {
	b []byte
	// nonFinite records a NaN or infinity, which JSON cannot carry.
	nonFinite bool
}

// Replier is a reply that encodes itself, byte for byte as encoding/json
// would encode it (without the trailing newline).
type Replier interface {
	AppendJSON(r *Reply)
}

var replyPool = sync.Pool{New: func() interface{} { return new(Reply) }}

// Raw appends JSON text verbatim: punctuation and keys.
func (r *Reply) Raw(s string) { r.b = append(r.b, s...) }

// Int appends n.
func (r *Reply) Int(n int) { r.b = strconv.AppendInt(r.b, int64(n), 10) }

// Bool appends true or false.
func (r *Reply) Bool(v bool) { r.b = strconv.AppendBool(r.b, v) }

// List appends xs as a JSON array, each element by item; a nil slice is
// null, as encoding/json writes it.
func List[T any](r *Reply, xs []T, item func(*Reply, T)) {
	if xs == nil {
		r.Raw("null")
		return
	}
	r.b = append(r.b, '[')
	for i, x := range xs {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		item(r, x)
	}
	r.b = append(r.b, ']')
}

// Neighbor appends one result entry, {"id":…,"dist":…}.
func (r *Reply) Neighbor(id int, dist float64) {
	r.Raw(`{"id":`)
	r.Int(id)
	r.Raw(`,"dist":`)
	r.Float64(dist)
	r.b = append(r.b, '}')
}

// Float64 appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in 'f' form unless |f| is below 1e-6
// or at least 1e21, where it switches to 'e' form and drops the leading
// zero of a one-digit negative exponent (1e-7, not 1e-07).
// A NaN or infinity marks the reply, and WriteReply hands it to WriteJSON.
func (r *Reply) Float64(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.nonFinite = true
		r.b = append(r.b, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	r.b = strconv.AppendFloat(r.b, f, format, -1, 64)
	if n := len(r.b); format == 'e' && r.b[n-4] == 'e' && r.b[n-3] == '-' && r.b[n-2] == '0' {
		r.b[n-2] = r.b[n-1]
		r.b = r.b[:n-1]
	}
}

// WriteReply writes v under status as WriteJSON(w, status, v) would, to
// the byte, without reflection. A reply holding a NaN or infinity goes to
// WriteJSON itself, which refuses to encode it.
func WriteReply(w http.ResponseWriter, status int, v Replier) {
	r := replyPool.Get().(*Reply)
	r.b, r.nonFinite = r.b[:0], false
	v.AppendJSON(r)
	if r.nonFinite {
		WriteJSON(w, status, v)
	} else {
		r.b = append(r.b, '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		// As in WriteJSON, a failed write leaves nothing to do.
		_, _ = w.Write(r.b)
	}
	if cap(r.b) <= maxPooledBytes {
		replyPool.Put(r)
	}
}
