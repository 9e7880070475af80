package monitor

// The Appendix F.2 tolerance experiment: sample noncompliant Unicerts
// (especially those with non-printable characters in CN/O/OU/SAN),
// index them into each monitor, and measure how many the owner's
// natural queries fail to return — the "Fail to return certs with
// special Unicode" column of Table 6.

import (
	"strings"

	"repro/internal/uni"
	"repro/internal/x509cert"
)

// ToleranceRow is one monitor's outcome over the sample.
type ToleranceRow struct {
	Monitor string
	Sampled int
	Found   int
	Missed  int
	Refused int // owner queries the monitor rejected outright
}

// ownerQuery derives the query a domain owner would type for a
// certificate: the first SAN DNSName with special characters stripped
// (owners search for their real domain, not the crafted bytes), falling
// back to a cleaned CN.
func ownerQuery(c *x509cert.Certificate) string {
	clean := func(s string) string {
		// The owner searches for their real domain, which ends where the
		// crafted special characters begin.
		if i := strings.IndexFunc(s, func(r rune) bool {
			return uni.IsControl(r) || r == '�'
		}); i >= 0 {
			s = s[:i]
		}
		return s
	}
	if names := c.DNSNames(); len(names) > 0 {
		return clean(names[0])
	}
	return clean(c.CommonName())
}

// ToleranceExperiment indexes each sampled certificate into a fresh
// instance of every monitor and replays the owner's query.
func ToleranceExperiment(sample []*x509cert.Certificate) []ToleranceRow {
	var out []ToleranceRow
	for _, caps := range Monitors() {
		row := ToleranceRow{Monitor: caps.Name}
		if caps.Discontinued {
			out = append(out, row)
			continue
		}
		for i, c := range sample {
			q := ownerQuery(c)
			if q == "" {
				continue
			}
			row.Sampled++
			m := New(caps)
			m.Index(i, c)
			res := m.Query(q)
			switch {
			case res.Refused:
				row.Refused++
				row.Missed++
			case len(res.IDs) > 0:
				row.Found++
			default:
				row.Missed++
			}
		}
		out = append(out, row)
	}
	return out
}
