// Package httpxtest holds the parity checks the server's and the
// router's codec tests share: the canonical request decoder against
// encoding/json, and the reply encoder against encoding/json.
package httpxtest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bilsh/internal/httpx"
)

// CheckParity fails when the canonical decoder accepts a body that
// encoding/json, with unknown fields disallowed, rejects or decodes to a
// different value. new returns a zero request and its field table. It
// reports whether the canonical decoder accepted.
func CheckParity(t testing.TB, body []byte, new func() (interface{}, []httpx.Field)) bool {
	t.Helper()
	got, fields := new()
	if !httpx.DecodeCanonical(body, fields) {
		return false
	}
	want, _ := new()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(want); err != nil {
		t.Fatalf("canonical decoder accepted %q, encoding/json rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q decodes to\n%+v\nencoding/json decodes it to\n%+v", body, got, want)
	}
	return true
}

// AssertSameReply fails unless WriteReply(v) and WriteJSON(v) answer with
// the same status, headers and bytes.
func AssertSameReply(t testing.TB, v httpx.Replier) {
	t.Helper()
	fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
	httpx.WriteReply(fast, http.StatusOK, v)
	httpx.WriteJSON(slow, http.StatusOK, v)
	if fast.Code != slow.Code || !reflect.DeepEqual(fast.Header(), slow.Header()) ||
		!bytes.Equal(fast.Body.Bytes(), slow.Body.Bytes()) {
		t.Fatalf("reply differs from encoding/json\ngot  %d %v %q\nwant %d %v %q",
			fast.Code, fast.Header(), fast.Body, slow.Code, slow.Header(), slow.Body)
	}
}
