package event

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip checks, for arbitrary payload bytes of every kind, that
// decode→encode→decode is stable: the first encode canonicalizes padding, and
// from then on the bytes must round-trip exactly. Payloads of the wrong
// length must fail with the typed *DecodeError and never panic.
func FuzzCodecRoundTrip(f *testing.F) {
	for k := Kind(0); k < NumKinds; k++ {
		seed := make([]byte, SizeOf(k))
		for i := range seed {
			seed[i] = byte(i * 7)
		}
		f.Add(uint8(k), seed)
		f.Add(uint8(k), seed[:len(seed)-1]) // short payload
	}
	f.Add(uint8(NumKinds), []byte{1, 2, 3}) // unknown kind

	f.Fuzz(func(t *testing.T, kindByte uint8, payload []byte) {
		k := Kind(kindByte)
		ev, err := Decode(k, payload)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("Decode(%d, %dB) error is not *DecodeError: %v", kindByte, len(payload), err)
			}
			if k < NumKinds && len(payload) == SizeOf(k) {
				t.Fatalf("Decode(%v) rejected an exact-size payload: %v", k, err)
			}
			return
		}
		if k >= NumKinds || len(payload) != SizeOf(k) {
			t.Fatalf("Decode(%d, %dB) accepted invalid input", kindByte, len(payload))
		}

		// First encode canonicalizes padding bytes to zero.
		enc1 := ev.AppendTo(nil)
		ev2, err := Decode(k, enc1)
		if err != nil {
			t.Fatalf("%v: re-decode failed: %v", k, err)
		}
		enc2 := ev2.AppendTo(nil)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%v: encode→decode→encode not byte-stable\n enc1 %x\n enc2 %x", k, enc1, enc2)
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("%v: round-tripped event differs", k)
		}
	})
}
