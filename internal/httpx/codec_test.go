package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// queryFields is the field table of a QueryRequest.
func queryFields(q *QueryRequest) []Field {
	return q.QueryPlan.Fields(VectorField("vector", &q.Vector), IntField("k", &q.K))
}

// decodeBoth runs DecodeRequest and DecodeBody on the same request body
// and fails unless they agree on acceptance, status, reply bytes and the
// decoded value.
func decodeBoth(t *testing.T, body []byte, maxBytes int64) (accepted bool) {
	t.Helper()
	var got, want QueryRequest
	gw, ww := httptest.NewRecorder(), httptest.NewRecorder()
	gok := DecodeRequest(gw, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)), maxBytes, &got, queryFields(&got))
	wok := DecodeBody(ww, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)), maxBytes, &want)
	if gok != wok || gw.Code != ww.Code || gw.Body.String() != ww.Body.String() || !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeRequest %v %d %q %+v\nDecodeBody    %v %d %q %+v",
			body, gok, gw.Code, gw.Body, got, wok, ww.Code, ww.Body, want)
	}
	return gok
}

// FuzzDecodeRequest pins DecodeRequest to DecodeBody on arbitrary bodies:
// the same acceptance, the same 400 body and the same decoded value,
// whichever path decodes them.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range []string{
		`{"vector":[1,2.5,-3e-7,0],"k":10}`,
		`{"k":10,"vector":[0.1,-0,1E+3],"recall":0.5,"probes":3}`,
		`{"vector":[1],"k":1.5}`,
		`{"vector":[1],"K":2}`,
		`{"vector":[1],"extra":2}`,
		`{"vector":[1e39]}`,
		`{"vector":"abc"}`,
		`{"vect\u006fr":[1]}`,
		`{"vector":[1],"vector":[2,3]}`,
		`{"vector":[1]}   {"k":3}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(s), int64(1<<20))
	}
	f.Add([]byte(`{"vector":[1,2,3,4,5,6]}`), int64(10))
	f.Fuzz(func(t *testing.T, body []byte, maxBytes int64) {
		if maxBytes < 1 || maxBytes > 1<<20 {
			maxBytes = 1 << 20
		}
		decodeBoth(t, body, maxBytes)
	})
}

// TestDecodeRequestShapes walks the canonical path's edges: what it takes
// itself and what it hands to encoding/json, with DecodeBody's outcome
// either way.
func TestDecodeRequestShapes(t *testing.T) {
	for _, tc := range []struct {
		body      string
		canonical bool
	}{
		{`{"vector":[1,2.5,-3e-7,0],"k":10}`, true},
		{` {"k" : 10 ,"vector":[ ]}` + "\n", true},
		{`{}`, true},
		{`{"recall":0.25,"probes":1,"tables":2,"hier_min":3,"rerank":4,"stable_probes":5,"max_candidates":6}`, true},
		{`{"vector":[1.17549435e-38,3.4028235e38,1e-46]}`, true},
		{`{"k":-0}`, true},
		{`{"Vector":[1]}`, false},                        // case variant: encoding/json matches it
		{`{"vector":[1],"workers":2}`, false},            // unknown key: 400
		{`{"vect\u006fr":[1]}`, false},                   // escaped key
		{`{"k":1,"k":2}`, false},                         // duplicate: the last wins
		{`{"vector":null}`, false},                       // null
		{`{"vector":[1e39]}`, false},                     // float32 overflow: 400
		{`{"k":1e3}`, false},                             // exponent on an int: 400
		{`{"k":9223372036854775808}`, false},             // int overflow: 400
		{`{"vector":[01]}`, false},                       // not JSON: 400
		{`{"vector":[1.]}`, false},                       // not JSON: 400
		{`{"vector":[.5]}`, false},                       // not JSON: 400
		{`{"vector":[+1]}`, false},                       // not JSON: 400
		{`{"vector":[1,]}`, false},                       // not JSON: 400
		{`{"vector":[1]} trailing`, false},               // encoding/json reads one value
		{`{"vector":[1]`, false},                         // truncated: 400
		{`null`, false},                                  // a null body decodes to nothing
		{``, false},                                      // empty: 400
		{`{"vector":[1,2,3],"k":3,"probes":"4"}`, false}, // string: 400
	} {
		var q QueryRequest
		if got := DecodeCanonical([]byte(tc.body), queryFields(&q)); got != tc.canonical {
			t.Errorf("DecodeCanonical(%s) = %v, want %v", tc.body, got, tc.canonical)
		}
		decodeBoth(t, []byte(tc.body), 1<<20)
	}
}

// TestDecodeRequestCapAndReadErrors pins that a body over the cap, or a
// read that fails, draws DecodeBody's 400 and that a canonical value
// ending before the cap is still accepted, as encoding/json accepts it.
func TestDecodeRequestCapAndReadErrors(t *testing.T) {
	if decodeBoth(t, []byte(`{"vector":[1,2,3,4,5,6,7,8]}`), 10) {
		t.Fatal("body over the cap accepted")
	}
	if !decodeBoth(t, []byte(`{"k":3}                  `), 10) {
		t.Fatal("value within the cap, trailing blanks beyond it: rejected")
	}
	var q QueryRequest
	w := httptest.NewRecorder()
	body := &failAfter{data: []byte(`{"vector":[1,2`), err: errors.New("connection reset")}
	if DecodeRequest(w, httptest.NewRequest(http.MethodPost, "/query", body), 1<<20, &q, queryFields(&q)) {
		t.Fatal("failed read accepted")
	}
	if want := `{"error":"invalid JSON body: connection reset"}` + "\n"; w.Code != http.StatusBadRequest || w.Body.String() != want {
		t.Fatalf("failed read answered %d %q, want 400 %q", w.Code, w.Body, want)
	}
}

// failAfter yields data, then err.
type failAfter struct {
	data []byte
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestInsertRequestNullID pins the one null the canonical path takes:
// json.Marshal writes a nil *int as null.
func TestInsertRequestNullID(t *testing.T) {
	body, err := json.Marshal(InsertRequest{Vector: []float32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var q InsertRequest
	if !DecodeCanonical(body, InsertFields(&q)) || q.ID != nil || !reflect.DeepEqual(q.Vector, []float32{1, 2}) {
		t.Fatalf("%s decoded to %+v", body, q)
	}
}

// floatReply is a Replier carrying one float64, for the formatter test.
type floatReply struct {
	V float64 `json:"v"`
}

func (f *floatReply) AppendJSON(r *Reply) {
	r.Raw(`{"v":`)
	r.Float64(f.V)
	r.Raw("}")
}

// TestFloat64MatchesEncodingJSON pins Reply.Float64 to encoding/json's
// float64 formatting: both 'f'/'e' cut-offs from either side, the
// exponent cleanup, subnormals, extremes and random bit patterns.
func TestFloat64MatchesEncodingJSON(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0),
		1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), 1e22, 123456789e13,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 5e-324, 2.2250738585072014e-308}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			values = append(values, f)
		}
	}
	for _, v := range values {
		fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
		WriteReply(fast, http.StatusOK, &floatReply{v})
		WriteJSON(slow, http.StatusOK, &floatReply{v})
		if fast.Body.String() != slow.Body.String() {
			t.Fatalf("%v (bits %#x): got %q, encoding/json writes %q", v, math.Float64bits(v), fast.Body, slow.Body)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
		WriteReply(fast, http.StatusCreated, &floatReply{v})
		WriteJSON(slow, http.StatusCreated, &floatReply{v})
		if fast.Code != slow.Code || fast.Body.String() != slow.Body.String() ||
			!reflect.DeepEqual(fast.Header(), slow.Header()) {
			t.Fatalf("%v: got %d %q, WriteJSON answers %d %q", v, fast.Code, fast.Body, slow.Code, slow.Body)
		}
	}
}

// TestNewServerReadHeaderTimeout pins the header deadline every serving
// listener is built with.
func TestNewServerReadHeaderTimeout(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.Handler == nil {
		t.Fatalf("NewServer: ReadHeaderTimeout %v, handler %v", srv.ReadHeaderTimeout, srv.Handler)
	}
}
