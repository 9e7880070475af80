package index

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenSegment is a USEG v1 file written by the Flush of the first
// segment writer from goldenRecords. The writer may change; the bytes
// it writes may not.
const goldenSegment = "testdata/seg-v1.useg"

// goldenRecords is the fixed input of the golden segment: 20 records
// over five apexes, three issuers and a spread of notBefore times, one
// of them a hostile name whose embedded NUL FromCert strips.
func goldenRecords() []Record {
	issuers := []string{"CN=Alpha CA", "CN=Beta CA", "CN=Gamma CA"}
	apexes := []string{"example.com", "example.org", "paypal.com", "pаypal.com", "other.net"}
	recs := make([]Record, 0, 20)
	for i := 0; i < 19; i++ {
		d := fmt.Sprintf("h%02d.%s", i%7, apexes[i%len(apexes)])
		recs = append(recs, mkRec(d, issuers[i%len(issuers)], []string{"alpha", "bravo"}[i%2],
			uint64(100+i), testBase.Add(time.Duration(i*37)*time.Minute)))
	}
	return append(recs, mkRec(sanitizeNUL("paypal.com\x00.evil.example"), issuers[0], "alpha", 7, testBase))
}

// TestSegmentFormatGolden pins the on-disk format: the golden file
// opens to exactly its records, and a Flush of the same records writes
// the same bytes.
func TestSegmentFormatGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("reading golden segment: %v", err)
	}
	recs := goldenRecords()
	m := &refModel{}
	for _, r := range recs {
		m.put(r)
	}

	dir := t.TempDir()
	name := filepath.Base(segmentPath(dir, 0))
	if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	old := openTestLSM(t, Options{Dir: dir})
	q := PrefixQuery("")
	q.Limit = 1 << 20
	got, err := old.Lookup(q)
	if err != nil {
		t.Fatalf("lookup over golden segment: %v", err)
	}
	sameRecords(t, "golden prefix scan", got, m.lookup(q))
	if st := old.Stats(); st.Certs != uint64(len(recs)) || st.Postings != 5*uint64(len(recs)) || len(st.Damaged) != 0 {
		t.Fatalf("golden segment stats: %+v", st)
	}
	if got, err := old.Lookup(PointQuery("paypal.com.evil.example")); err != nil || len(got) != 1 {
		t.Fatalf("sanitised name: %d records, err %v", len(got), err)
	}

	fresh := openTestLSM(t, Options{})
	put(t, fresh, recs)
	if err := fresh.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	files, err := segmentFiles(fresh.opts.Dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("segmentFiles: %v (%d files)", err, len(files))
	}
	written, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("Flush wrote %d bytes that differ from the %d-byte golden segment", len(written), len(golden))
	}
}
