package asn1der

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"time"
)

func FuzzParse(f *testing.F) {
	// Seeds: valid encodings plus structurally hostile inputs.
	var b Builder
	b.AddSequence(func(b *Builder) {
		b.AddOID(OID{2, 5, 4, 3})
		b.AddStringRaw(TagUTF8String, []byte("seed"))
		b.AddInt(-129)
		b.AddBool(true)
	})
	seed, _ := b.Bytes()
	f.Add(seed)
	f.Add([]byte{0x30, 0x80, 0x00, 0x00})       // indefinite length
	f.Add([]byte{0x30, 0x84, 0xFF, 0xFF, 0xFF}) // huge length
	f.Add([]byte{0x1F, 0xFF, 0xFF, 0xFF, 0xFF}) // runaway high tag
	f.Add(bytes.Repeat([]byte{0x30, 0x02}, 40)) // nesting
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []Mode{StrictDER, LenientBER} {
			v, err := NewDecoder(mode).Parse(data)
			if err != nil {
				continue
			}
			// Raw must reproduce the input exactly.
			if !bytes.Equal(v.Raw, data) {
				t.Fatalf("Raw diverges from input: % X vs % X", v.Raw, data)
			}
			// A successful strict parse must re-parse.
			if _, err := NewDecoder(mode).Parse(v.Raw); err != nil {
				t.Fatalf("reparse failed: %v", err)
			}
		}
	})
}

func FuzzOIDRoundTrip(f *testing.F) {
	f.Add(uint32(2), uint32(5), uint32(4), uint32(3))
	f.Add(uint32(1), uint32(3), uint32(840), uint32(113549))
	f.Add(uint32(0), uint32(39), uint32(0), uint32(4294967295))
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		if a > 2 {
			a %= 3
		}
		if a < 2 && b >= 40 {
			b %= 40
		}
		oid := OID{a, b, c, d}
		var bld Builder
		bld.AddOID(oid)
		der, err := bld.Bytes()
		if err != nil {
			t.Skip()
		}
		v, err := Parse(der)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		got, err := v.OID()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Equal(oid) {
			t.Fatalf("round trip %v -> %v", oid, got)
		}
	})
}

// oracleTime is Value.Time as it was before its fast path: every
// content goes through time.Parse. FuzzValueTime holds Time to it.
func oracleTime(v *Value) (time.Time, error) {
	if v.Tag.Class != ClassUniversal {
		return time.Time{}, fmt.Errorf("asn1der: %s is not a time type", v.Tag)
	}
	s := string(v.Bytes)
	switch v.Tag.Number {
	case TagUTCTime:
		t, err := time.Parse("060102150405Z", s)
		if err != nil {
			t, err = time.Parse("0601021504Z", s)
			if err != nil {
				return time.Time{}, fmt.Errorf("asn1der: bad UTCTime %q", s)
			}
		}
		if t.Year() >= 2050 {
			t = t.AddDate(-100, 0, 0)
		}
		return t, nil
	case TagGeneralizedTime:
		t, err := time.Parse("20060102150405Z", s)
		if err != nil {
			return time.Time{}, fmt.Errorf("asn1der: bad GeneralizedTime %q", s)
		}
		return t, nil
	default:
		return time.Time{}, fmt.Errorf("asn1der: %s is not a time type", v.Tag)
	}
}

// oracleInt is Value.Int as it was before it stopped using big.Int.
func oracleInt(v *Value) (int64, error) {
	if v.Tag.Class != ClassUniversal || (v.Tag.Number != TagInteger && v.Tag.Number != TagEnumerated) {
		return 0, fmt.Errorf("asn1der: got %s, want INTEGER", v.Tag)
	}
	b := v.Bytes
	if len(b) == 0 {
		return 0, errors.New("asn1der: empty INTEGER")
	}
	if len(b) > 1 {
		if (b[0] == 0x00 && b[1]&0x80 == 0) || (b[0] == 0xFF && b[1]&0x80 != 0) {
			return 0, errors.New("asn1der: non-minimal INTEGER")
		}
	}
	n := new(big.Int).SetBytes(b)
	if b[0]&0x80 != 0 {
		n.Sub(n, new(big.Int).Lsh(big.NewInt(1), uint(len(b)*8)))
	}
	if !n.IsInt64() {
		return 0, errors.New("asn1der: INTEGER does not fit in int64")
	}
	return n.Int64(), nil
}

// sameResult fails t unless both results carry the same error text, or
// both succeed with identical values (== also compares the Location).
func sameResult[T comparable](t *testing.T, in []byte, got, want T, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, oracle %v", in, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("%q: %v, oracle %v", in, got, want)
	}
}

func FuzzValueTime(f *testing.F) {
	for _, s := range []string{
		"490101000000Z", "500101000000Z", "680101000000Z", "690101000000Z", "991231235959Z",
		"240229120000Z", "20240229120000Z", "21000229120000Z", "19000229120000Z", "000229000000Z",
		"240101000060Z", "240101240000Z", "240431000000Z", "20240631000000Z",
		"2401010000Z", "240101000000.5Z", "20240101000000.5Z", "240101000000", "20240101000000",
		"240101000000+0000", "2401011000Z", "24010150000Z", "-10101000000Z", "+50101000000Z",
		"240101000000Z", "20240101000000Z", "99991231235959Z", "00000101000000Z",
	} {
		f.Add(uint8(TagUTCTime), []byte(s))
		f.Add(uint8(TagGeneralizedTime), []byte(s))
	}
	f.Add(uint8(TagOctetString), []byte("240101000000Z"))
	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		v := &Value{Tag: Tag{Class: ClassUniversal, Number: int(tag)}, Bytes: body}
		got, err := v.Time()
		want, wantErr := oracleTime(v)
		sameResult(t, body, got, want, err, wantErr)
		// DERTime takes exactly the DER layouts, to Time's value.
		n := len(body)
		der := len(body) > 0 && body[n-1] == 'Z' && strings.Trim(string(body[:n-1]), "0123456789") == "" &&
			(tag == TagUTCTime && n == 13 || tag == TagGeneralizedTime && n == 15)
		if dt, derr := v.DERTime(); (derr == nil) != (der && err == nil) || derr == nil && !dt.Equal(got) {
			t.Fatalf("DERTime(%d, %q) = %v, %v; Time = %v, %v", tag, body, dt, derr, got, err)
		}
		if err == nil && got.Location().String() != want.Location().String() {
			t.Fatalf("%q: location %v, oracle %v", body, got.Location(), want.Location())
		}
	})
}

func FuzzValueInt(f *testing.F) {
	for _, b := range [][]byte{
		{0x00}, {0xFF}, {0x7F}, {0x00, 0x80}, {0x80}, {0xFF, 0x7F},
		{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0x00, 0x7F}, {0xFF, 0x80}, {},
	} {
		f.Add(uint8(TagInteger), b)
	}
	f.Add(uint8(TagEnumerated), []byte{0x02})
	f.Add(uint8(TagOctetString), []byte{0x02})
	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		v := &Value{Tag: Tag{Class: ClassUniversal, Number: int(tag)}, Bytes: body}
		got, err := v.Int()
		want, wantErr := oracleInt(v)
		sameResult(t, body, got, want, err, wantErr)
	})
}
