// Package asn1der is a from-scratch implementation of the ASN.1
// Distinguished Encoding Rules (ITU-T X.690) subset that X.509
// certificates use. It provides a structural TLV decoder with strict and
// lenient modes, an encoder, and typed helpers for the primitives that
// appear in certificates (OBJECT IDENTIFIER, INTEGER, BIT STRING, the
// time types, and the eight string types of Table 8).
//
// The decoder deliberately separates structure from string semantics:
// string content is returned as raw bytes and interpreted by
// internal/strenc, because the whole point of the paper's RQ2 is that
// different consumers interpret the same bytes differently.
package asn1der

import (
	"errors"
	"fmt"
	"math/big"
)

// Class is an ASN.1 tag class.
type Class int

// Tag classes, per X.690 §8.1.2.2.
const (
	ClassUniversal Class = iota
	ClassApplication
	ClassContextSpecific
	ClassPrivate
)

func (c Class) String() string {
	switch c {
	case ClassUniversal:
		return "universal"
	case ClassApplication:
		return "application"
	case ClassContextSpecific:
		return "context"
	case ClassPrivate:
		return "private"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Universal tag numbers used in X.509.
const (
	TagBoolean         = 1
	TagInteger         = 2
	TagBitString       = 3
	TagOctetString     = 4
	TagNull            = 5
	TagOID             = 6
	TagEnumerated      = 10
	TagUTF8String      = 12
	TagSequence        = 16
	TagSet             = 17
	TagNumericString   = 18
	TagPrintableString = 19
	TagTeletexString   = 20
	TagIA5String       = 22
	TagUTCTime         = 23
	TagGeneralizedTime = 24
	TagVisibleString   = 26
	TagUniversalString = 28
	TagBMPString       = 30
)

// IsStringTag reports whether a universal tag number denotes one of the
// ASN.1 string types permitted in X.509 certificates.
func IsStringTag(num int) bool {
	switch num {
	case TagUTF8String, TagNumericString, TagPrintableString, TagTeletexString,
		TagIA5String, TagVisibleString, TagUniversalString, TagBMPString:
		return true
	}
	return false
}

// Tag is a decoded identifier octet.
type Tag struct {
	Class       Class
	Number      int
	Constructed bool
}

func (t Tag) String() string {
	if t.Class == ClassUniversal {
		return universalTagName(t.Number)
	}
	return fmt.Sprintf("[%s %d]", t.Class, t.Number)
}

func universalTagName(n int) string {
	switch n {
	case TagBoolean:
		return "BOOLEAN"
	case TagInteger:
		return "INTEGER"
	case TagBitString:
		return "BIT STRING"
	case TagOctetString:
		return "OCTET STRING"
	case TagNull:
		return "NULL"
	case TagOID:
		return "OBJECT IDENTIFIER"
	case TagEnumerated:
		return "ENUMERATED"
	case TagUTF8String:
		return "UTF8String"
	case TagSequence:
		return "SEQUENCE"
	case TagSet:
		return "SET"
	case TagNumericString:
		return "NumericString"
	case TagPrintableString:
		return "PrintableString"
	case TagTeletexString:
		return "TeletexString"
	case TagIA5String:
		return "IA5String"
	case TagUTCTime:
		return "UTCTime"
	case TagGeneralizedTime:
		return "GeneralizedTime"
	case TagVisibleString:
		return "VisibleString"
	case TagUniversalString:
		return "UniversalString"
	case TagBMPString:
		return "BMPString"
	default:
		return fmt.Sprintf("[UNIVERSAL %d]", n)
	}
}

// Value is a decoded TLV node. Constructed values carry Children;
// primitive values carry content in Bytes. Raw always spans the full
// encoding including the identifier and length octets.
type Value struct {
	Tag      Tag
	Bytes    []byte
	Children []*Value
	Raw      []byte
}

// SyntaxError is a DER structural violation.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asn1der: syntax error at offset %d: %s", e.Offset, e.Msg)
}

func syntaxErr(off int, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Mode selects decoder strictness.
type Mode int

const (
	// StrictDER enforces X.690 DER: definite, minimal lengths only.
	StrictDER Mode = iota
	// LenientBER additionally accepts non-minimal long-form lengths, as
	// several of the paper's parser subjects do.
	LenientBER
)

// Decoder walks a DER byte stream.
type Decoder struct {
	mode  Mode
	arena *Arena
}

// NewDecoder returns a decoder in the given mode.
func NewDecoder(mode Mode) *Decoder { return &Decoder{mode: mode} }

// WithArena makes the decoder carve Value nodes and child slices out of
// a instead of the heap. See the Arena lifecycle contract: everything a
// subsequent Parse returns is invalidated by a.Reset().
func (d *Decoder) WithArena(a *Arena) *Decoder {
	d.arena = a
	return d
}

// Parse decodes exactly one value spanning all of data.
func (d *Decoder) Parse(data []byte) (*Value, error) {
	v, rest, err := d.parseValue(data, 0, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, syntaxErr(len(data)-len(rest), "trailing %d bytes after value", len(rest))
	}
	return v, nil
}

// Parse decodes one value in strict DER mode, requiring it to span all
// of data.
func Parse(data []byte) (*Value, error) { return NewDecoder(StrictDER).Parse(data) }

// maxDepth bounds recursion so hostile input cannot exhaust the stack.
const maxDepth = 64

func (d *Decoder) parseValue(data []byte, base, depth int) (*Value, []byte, error) {
	if depth > maxDepth {
		return nil, nil, syntaxErr(base, "nesting deeper than %d", maxDepth)
	}
	if len(data) == 0 {
		return nil, nil, syntaxErr(base, "truncated: missing identifier octet")
	}
	id := data[0]
	tag := Tag{
		Class:       Class(id >> 6),
		Constructed: id&0x20 != 0,
		Number:      int(id & 0x1F),
	}
	idx := 1
	if tag.Number == 0x1F {
		// High tag number form.
		n := 0
		for {
			if idx >= len(data) {
				return nil, nil, syntaxErr(base+idx, "truncated high tag number")
			}
			b := data[idx]
			idx++
			if n > 1<<20 {
				return nil, nil, syntaxErr(base+idx, "tag number overflow")
			}
			n = n<<7 | int(b&0x7F)
			if b&0x80 == 0 {
				break
			}
		}
		tag.Number = n
	}
	length, idx, err := d.parseLength(data, idx, base)
	if err != nil {
		return nil, nil, err
	}
	if length < 0 || length > len(data)-idx {
		return nil, nil, syntaxErr(base+idx, "length %d exceeds remaining %d bytes", length, len(data)-idx)
	}
	content := data[idx : idx+length]
	var v *Value
	if d.arena != nil {
		v = d.arena.newValue()
		v.Tag, v.Raw = tag, data[:idx+length]
	} else {
		v = &Value{Tag: tag, Raw: data[:idx+length]}
	}
	if tag.Constructed {
		if d.arena != nil {
			// Pre-count the children by scanning TLV headers so the
			// child slice can be carved at its exact size. The count is
			// best-effort: on malformed input the real recursive parse
			// below reports the error, and append past the carved
			// capacity falls back to the heap.
			v.Children = d.arena.newChildren(countTLVs(content))
		}
		rest := content
		off := base + idx
		for len(rest) > 0 {
			child, r, err := d.parseValue(rest, off, depth+1)
			if err != nil {
				return nil, nil, err
			}
			off += len(rest) - len(r)
			rest = r
			v.Children = append(v.Children, child)
		}
	} else {
		v.Bytes = content
	}
	return v, data[idx+length:], nil
}

// countTLVs scans the TLV headers in data and returns how many sibling
// values it holds. It never recurses and stops counting at the first
// structural inconsistency, leaving error reporting to the real parse.
func countTLVs(data []byte) int {
	n := 0
	for len(data) > 0 {
		idx := 1
		if data[0]&0x1F == 0x1F {
			for idx < len(data) && data[idx]&0x80 != 0 {
				idx++
			}
			idx++ // final (or missing) high-tag octet
		}
		if idx >= len(data) {
			return n + 1
		}
		b := data[idx]
		idx++
		length := int(b)
		if b >= 0x80 {
			ll := int(b & 0x7F)
			if ll == 0 || ll > 4 || idx+ll > len(data) {
				return n + 1
			}
			length = 0
			for i := 0; i < ll; i++ {
				length = length<<8 | int(data[idx+i])
			}
			idx += ll
		}
		if length < 0 || length > len(data)-idx {
			return n + 1
		}
		data = data[idx+length:]
		n++
	}
	return n
}

func (d *Decoder) parseLength(data []byte, idx, base int) (int, int, error) {
	if idx >= len(data) {
		return 0, 0, syntaxErr(base+idx, "truncated: missing length octet")
	}
	b := data[idx]
	idx++
	if b < 0x80 {
		return int(b), idx, nil
	}
	if b == 0x80 {
		return 0, 0, syntaxErr(base+idx-1, "indefinite length not permitted in DER")
	}
	n := int(b & 0x7F)
	if n > 4 {
		return 0, 0, syntaxErr(base+idx-1, "length of length %d too large", n)
	}
	if idx+n > len(data) {
		return 0, 0, syntaxErr(base+idx, "truncated long-form length")
	}
	length := 0
	for i := 0; i < n; i++ {
		length = length<<8 | int(data[idx+i])
	}
	idx += n
	if d.mode == StrictDER {
		if length < 0x80 {
			return 0, 0, syntaxErr(base+idx-n-1, "non-minimal long-form length %d", length)
		}
		if n > 1 && data[idx-n] == 0 {
			return 0, 0, syntaxErr(base+idx-n, "leading zero in long-form length")
		}
	}
	return length, idx, nil
}

// Child returns the i-th child of a constructed value, or an error.
func (v *Value) Child(i int) (*Value, error) {
	if i < 0 || i >= len(v.Children) {
		return nil, fmt.Errorf("asn1der: %s has %d children, want index %d", v.Tag, len(v.Children), i)
	}
	return v.Children[i], nil
}

// Expect returns v if its tag matches class/number, else an error.
func (v *Value) Expect(class Class, number int) (*Value, error) {
	if v.Tag.Class != class || v.Tag.Number != number {
		return nil, fmt.Errorf("asn1der: got %s, want %s", v.Tag, Tag{Class: class, Number: number})
	}
	return v, nil
}

// Bool decodes a BOOLEAN content.
func (v *Value) Bool() (bool, error) {
	if _, err := v.Expect(ClassUniversal, TagBoolean); err != nil {
		return false, err
	}
	if len(v.Bytes) != 1 {
		return false, errors.New("asn1der: BOOLEAN must be one octet")
	}
	return v.Bytes[0] != 0, nil
}

// Int decodes an INTEGER content into an int64, with no big.Int: a
// minimal INTEGER fits exactly when it has at most 8 content octets.
func (v *Value) Int() (int64, error) {
	b, err := v.intContent()
	if err != nil {
		return 0, err
	}
	if len(b) > 8 {
		return 0, errors.New("asn1der: INTEGER does not fit in int64")
	}
	n := int64(int8(b[0])) // the first octet carries the sign
	for _, c := range b[1:] {
		n = n<<8 | int64(c)
	}
	return n, nil
}

// BigInt decodes an INTEGER content of arbitrary width.
func (v *Value) BigInt() (*big.Int, error) {
	b, err := v.intContent()
	if err != nil {
		return nil, err
	}
	n := new(big.Int).SetBytes(b)
	if b[0]&0x80 != 0 {
		shift := new(big.Int).Lsh(big.NewInt(1), uint(len(b)*8))
		n.Sub(n, shift)
	}
	return n, nil
}

// intContent returns the content octets of a minimally encoded
// INTEGER or ENUMERATED.
func (v *Value) intContent() ([]byte, error) {
	if v.Tag.Class != ClassUniversal || (v.Tag.Number != TagInteger && v.Tag.Number != TagEnumerated) {
		return nil, fmt.Errorf("asn1der: got %s, want INTEGER", v.Tag)
	}
	b := v.Bytes
	if len(b) == 0 {
		return nil, errors.New("asn1der: empty INTEGER")
	}
	if len(b) > 1 {
		if (b[0] == 0x00 && b[1]&0x80 == 0) || (b[0] == 0xFF && b[1]&0x80 != 0) {
			return nil, errors.New("asn1der: non-minimal INTEGER")
		}
	}
	return b, nil
}

// BitString decodes a BIT STRING into its bytes and unused-bit count.
func (v *Value) BitString() ([]byte, int, error) {
	if _, err := v.Expect(ClassUniversal, TagBitString); err != nil {
		return nil, 0, err
	}
	if len(v.Bytes) == 0 {
		return nil, 0, errors.New("asn1der: empty BIT STRING")
	}
	unused := int(v.Bytes[0])
	if unused > 7 || (len(v.Bytes) == 1 && unused != 0) {
		return nil, 0, errors.New("asn1der: invalid BIT STRING padding")
	}
	return v.Bytes[1:], unused, nil
}

// StringContent returns the content octets of a primitive string value.
func (v *Value) StringContent() ([]byte, error) {
	if v.Tag.Class != ClassUniversal || !IsStringTag(v.Tag.Number) {
		return nil, fmt.Errorf("asn1der: %s is not a string type", v.Tag)
	}
	if v.Tag.Constructed {
		return nil, errors.New("asn1der: constructed strings not permitted in DER")
	}
	return v.Bytes, nil
}
