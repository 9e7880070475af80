package x509cert

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPKITSParseGolden parses every certificate of the NIST PKITS suite
// (testdata/pkits) in strict and in lenient mode and compares a dump of
// every exported parsed field, or the error text, with
// testdata/pkits_parse.golden. It is a real-certificate oracle for the
// parser: any change in what a parse yields shows as a diff. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/x509cert -run PKITS, and only
// for an intended change.
func TestPKITSParseGolden(t *testing.T) {
	const goldenPath = "testdata/pkits_parse.golden"
	files, err := filepath.Glob("testdata/pkits/*.crt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 405 {
		t.Fatalf("found %d PKITS certificates, want 405", len(files))
	}
	sort.Strings(files)
	var buf bytes.Buffer
	for _, f := range files {
		der, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var dumps [2]string
		for i, mode := range []ParseMode{ParseStrict, ParseLenient} {
			c, err := ParseWithMode(der, mode)
			if err != nil {
				dumps[i] = "error: " + err.Error() + "\n"
				continue
			}
			dumps[i] = dumpCert(c)
		}
		fmt.Fprintf(&buf, "== %s strict\n%s", filepath.Base(f), dumps[0])
		if dumps[1] == dumps[0] {
			fmt.Fprintf(&buf, "== %s lenient: same\n", filepath.Base(f))
		} else {
			fmt.Fprintf(&buf, "== %s lenient\n%s", filepath.Base(f), dumps[1])
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(golden) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("PKITS parse drift at golden line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("PKITS parse drift: %d lines, golden has %d", len(gl), len(wl))
	}
}

// dumpCert renders every exported parsed field of c, one per line. Raw
// byte fields that only echo the input (Raw, RawTBS, RawSPKI, the key
// and signature bits, extension values) are pinned by length and a
// digest prefix.
func dumpCert(c *Certificate) string {
	var b strings.Builder
	digest := func(p []byte) string {
		sum := sha256.Sum256(p)
		return fmt.Sprintf("len=%d sha=%x", len(p), sum[:6])
	}
	fmt.Fprintf(&b, "raw %s tbs %s\n", digest(c.Raw), digest(c.RawTBS))
	fmt.Fprintf(&b, "version %d serial %v sigalg %v\n", c.Version, c.SerialNumber, c.SignatureAlgorithm)
	fmt.Fprintf(&b, "issuer %s\n", dumpDN(c.Issuer))
	fmt.Fprintf(&b, "subject %s\n", dumpDN(c.Subject))
	fmt.Fprintf(&b, "notBefore %v (%s) notAfter %v (%s)\n",
		c.NotBefore, c.NotBefore.Location(), c.NotAfter, c.NotAfter.Location())
	fmt.Fprintf(&b, "spki %s algo %v curve %v key %s\n", digest(c.RawSPKI), c.PublicKeyAlgo, c.PublicKeyCurve, digest(c.PublicKeyBytes))
	for _, e := range c.Extensions {
		fmt.Fprintf(&b, "ext %v critical=%t %s\n", e.OID, e.Critical, digest(e.Value))
	}
	for _, f := range []struct {
		name string
		gns  []GeneralName
	}{{"san", c.SAN}, {"ian", c.IAN}, {"crldp", c.CRLDistributionPoints}} {
		if f.gns != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, dumpGNs(f.gns))
		}
	}
	for _, f := range []struct {
		name string
		ads  []AccessDescription
	}{{"aia", c.AIA}, {"sia", c.SIA}} {
		for _, ad := range f.ads {
			fmt.Fprintf(&b, "%s %v %s\n", f.name, ad.Method, dumpGNs([]GeneralName{ad.Location}))
		}
	}
	for _, p := range c.Policies {
		fmt.Fprintf(&b, "policy %v cps %q", p.Policy, p.CPSURIs)
		for _, dt := range p.ExplicitText {
			fmt.Fprintf(&b, " text %d:%q", dt.Tag, dt.Bytes)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "isCA %t basicConstraints %t ctPoison %t sig %s\n", c.IsCA, c.HasBasicConstraints, c.HasCTPoison, digest(c.SignatureValue))
	for _, w := range c.ParseWarnings {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	return b.String()
}

// dumpDN renders each RDN's ATVs as type, string tag and value bytes.
func dumpDN(d DN) string {
	if d == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, rdn := range d {
		if i > 0 {
			b.WriteString(" / ")
		}
		for j, atv := range rdn {
			if j > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%v=%d:%q", atv.Type, atv.Value.Tag, atv.Value.Bytes)
		}
	}
	b.WriteByte(']')
	return b.String()
}

func dumpGNs(gns []GeneralName) string {
	parts := make([]string, len(gns))
	for i, gn := range gns {
		if gn.Kind == GNDirectoryName {
			parts[i] = fmt.Sprintf("%v:%s", gn.Kind, dumpDN(gn.Directory))
		} else {
			parts[i] = fmt.Sprintf("%v:%q", gn.Kind, gn.Bytes)
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
