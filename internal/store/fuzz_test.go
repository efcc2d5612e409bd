package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzSignatureDecode throws arbitrary bytes at the codec. The decoder must
// never panic or allocate unboundedly; every failure must wrap ErrCorrupt
// (so the store quarantines instead of crashing); and anything that does
// decode must re-encode and decode back to the same value.
func FuzzSignatureDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, genSignature(r)); err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(buf.Bytes())
		// A truncated and a bit-flipped variant seed the corrupt paths.
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("TXSG\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, sig); err != nil {
			t.Fatalf("re-encoding a decoded signature: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded signature: %v", err)
		}
		if !reflect.DeepEqual(sig, again) {
			t.Fatalf("re-encode round trip diverged:\nfirst  %+v\nsecond %+v", sig, again)
		}
	})
}

// FuzzReuseDecode is FuzzSignatureDecode for the reuse-profile codec: the
// decoder must never panic; every failure must wrap ErrCorrupt, or
// ErrWrongKind for a healthy trace-signature object; and anything that
// decodes must re-encode and decode back to the same value.
func FuzzReuseDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := EncodeReuse(&buf, genReuse(r)); err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	var sig bytes.Buffer
	if err := Encode(&sig, genSignature(r)); err != nil {
		f.Fatalf("seeding: %v", err)
	}
	f.Add(sig.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TXSG\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeReuse(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrWrongKind) {
				t.Fatalf("decode error wraps neither ErrCorrupt nor ErrWrongKind: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeReuse(&buf, rs); err != nil {
			t.Fatalf("re-encoding a decoded reuse signature: %v", err)
		}
		again, err := DecodeReuse(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded reuse signature: %v", err)
		}
		if !reflect.DeepEqual(rs, again) {
			t.Fatalf("re-encode round trip diverged:\nfirst  %+v\nsecond %+v", rs, again)
		}
	})
}
