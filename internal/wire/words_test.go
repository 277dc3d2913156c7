package wire

import (
	"bytes"
	"testing"
)

func TestWordsRoundTrip(t *testing.T) {
	in := []uint64{0, 1, ^uint64(0), 0xdeadbeefcafef00d, 1 << 63}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Words(in)
	w.Words(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fixed width: length prefix (1 byte for 5) + 5*8 payload, then the
	// empty slice's single length byte.
	if got, want := buf.Len(), 1+5*8+1; got != want {
		t.Fatalf("encoded %d bytes, want %d (fixed-width words)", got, want)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	out := r.Words()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d words, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d = %#x, want %#x", i, out[i], in[i])
		}
	}
	if empty := r.Words(); len(empty) != 0 || r.Err() != nil {
		t.Fatalf("empty slice decoded as %v (err %v)", empty, r.Err())
	}
}

func TestWordsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Words([]uint64{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if out := r.Words(); out != nil || r.Err() == nil {
		t.Fatalf("truncated payload decoded as %v with err %v", out, r.Err())
	}
}

// TestU16BlockRoundTrip covers the block across several chunks of the
// bulk buffer, its fixed width and a truncated payload.
func TestU16BlockRoundTrip(t *testing.T) {
	in := make([]uint16, 3*chunkSize/2+5)
	for i := range in {
		in[i] = uint16(i*40503 + 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U16Block(in)
	w.U16Block(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), 2*len(in); got != want {
		t.Fatalf("encoded %d bytes, want %d (fixed width, no prefix)", got, want)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	out := make([]uint16, len(in))
	r.U16Block(out)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("element %d = %#x, want %#x", i, out[i], in[i])
		}
	}
	r = NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-1]))
	r.U16Block(out)
	if r.Err() == nil {
		t.Fatal("truncated block decoded without error")
	}
}
