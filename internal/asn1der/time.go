package asn1der

import (
	"fmt"
	"time"
)

// RFC 5280 §4.1.2.5: dates through 2049 are encoded as UTCTime, dates in
// 2050 and later as GeneralizedTime.
var generalizedTimeCutoff = time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC)

// AddTime appends t using the RFC 5280 UTCTime/GeneralizedTime rule.
func (b *Builder) AddTime(t time.Time) {
	t = t.UTC()
	if t.Before(generalizedTimeCutoff) && t.Year() >= 1950 {
		b.AddTLV(Tag{Class: ClassUniversal, Number: TagUTCTime},
			[]byte(t.Format("060102150405Z")))
		return
	}
	b.AddTLV(Tag{Class: ClassUniversal, Number: TagGeneralizedTime},
		[]byte(t.Format("20060102150405Z")))
}

// Time decodes a UTCTime or GeneralizedTime content. DER's two layouts
// are read straight from the bytes; any other content goes through
// time.Parse.
func (v *Value) Time() (time.Time, error) {
	if v.Tag.Class != ClassUniversal {
		return time.Time{}, fmt.Errorf("asn1der: %s is not a time type", v.Tag)
	}
	if t, ok := derTime(v.Tag.Number, v.Bytes); ok {
		return t, nil
	}
	s := string(v.Bytes)
	switch v.Tag.Number {
	case TagUTCTime:
		t, err := time.Parse("060102150405Z", s)
		if err != nil {
			// Seconds are technically optional in UTCTime under BER.
			t, err = time.Parse("0601021504Z", s)
			if err != nil {
				return time.Time{}, fmt.Errorf("asn1der: bad UTCTime %q", s)
			}
		}
		// Two-digit year pivot per RFC 5280: 50..99 → 19xx, 00..49 → 20xx.
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

// DERTime is Time restricted to DER's two layouts, the only ones RFC
// 5280 §4.1.2.5 allows in a certificate's validity.
func (v *Value) DERTime() (time.Time, error) {
	if t, ok := derTime(v.Tag.Number, v.Bytes); ok && v.Tag.Class == ClassUniversal {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("asn1der: %s %q is not a DER time", v.Tag, v.Bytes)
}

// derTime reads exactly YYMMDDHHMMSSZ (UTCTime) or YYYYMMDDHHMMSSZ
// (GeneralizedTime), all digits and every field in range, to the value
// Time's time.Parse path gives it; ok is false for any other content.
func derTime(tag int, b []byte) (t time.Time, ok bool) {
	n := len(b) - 1
	if !(tag == TagUTCTime && n == 12 || tag == TagGeneralizedTime && n == 14) || b[n] != 'Z' {
		return t, false
	}
	var f [7]int // two digits each
	for i, c := range b[:n] {
		if c-'0' > 9 {
			return t, false
		}
		f[i/2] = f[i/2]*10 + int(c-'0')
	}
	year, p := f[0]*100+f[1], [5]int(f[2:])
	if n == 12 { // the RFC 5280 pivot: 50..99 → 19xx, 00..49 → 20xx
		year, p = 1900+f[0]+100*((99-f[0])/50), [5]int(f[1:])
	}
	// time.Date normalises an out-of-range field into the next one, so
	// a field that reads back changed was out of range.
	t = time.Date(year, time.Month(p[0]), p[1], p[2], p[3], p[4], 0, time.UTC)
	_, m, d := t.Date()
	hh, mm, ss := t.Clock()
	return t, p == [5]int{int(m), d, hh, mm, ss}
}
