package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Segment file wire format ("USEG" v1, little-endian):
//
//	offset size field
//	     0    4 magic "USEG"
//	     4    2 version (1)
//	     6    2 reserved (0)
//	     8    4 posting count
//	    12    4 data length (bytes)
//	    16    4 bloom length (bytes)
//	    20  ... data: count × (uvarint klen, key, uvarint vlen, val),
//	            keys strictly ascending
//	    ...  ... bloom filter bits (bloomLen bytes)
//	  end-4    4 CRC-32 (IEEE) over everything before it
//
// Like the checkpoint record, a segment is torn-write-proof twice
// over: the CRC seals the whole file, and every write goes through
// temp → fsync → rename → dir-fsync, so a crash leaves either the
// complete file or no file. Unlike the checkpoint, a segment that
// fails validation is NOT silently treated as absent: a damaged
// segment means indexed certificates are missing, and a monitor that
// silently serves a partial index is exactly the paper's §6.1
// misleading monitor. Damaged files are renamed *.damaged, counted,
// journaled, and reported in Stats so the operator re-syncs.
const (
	segmentMagic   = "USEG"
	segmentVersion = 1
	segmentHdrLen  = 20
	segmentSuffix  = ".useg"
)

// run is one pointer-free sorted run, the shape of both the memtable
// and a loaded segment: buf holds postings in the segment data
// encoding (uvarint klen, key, uvarint vlen, val) and offs holds each
// posting's start in buf, in ascending key order. Nothing in a run is
// a pointer per posting, so the GC never scans its postings.
type run struct {
	buf  []byte
	offs []uint32
}

// appendPosting encodes one posting onto buf.
func appendPosting(buf, key, val []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

// field decodes the uvarint-framed bytes at buf[p:] and returns them
// with the offset just past them. Runs are built by this package or
// validated by parseSegment, so the framing is trusted here.
func field(buf []byte, p int) ([]byte, int) {
	n, w := uint64(buf[p]), 1
	if n >= 0x80 {
		n, w = binary.Uvarint(buf[p:])
	}
	p += w
	return buf[p : p+int(n)], p + int(n)
}

func (r *run) key(i int) []byte {
	k, _ := field(r.buf, int(r.offs[i]))
	return k
}

// posting returns posting i's key, value and raw encoding.
func (r *run) posting(i int) (key, val, raw []byte) {
	start := int(r.offs[i])
	key, p := field(r.buf, start)
	val, p = field(r.buf, p)
	return key, val, r.buf[start:p]
}

// search returns the index of the first posting whose key is >= key.
func (r *run) search(key []byte) int {
	lo, hi := 0, len(r.offs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(r.key(m), key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// segment is one loaded immutable sorted run. Its run and bloom are
// slices of the file image.
type segment struct {
	path string
	run
	bloom bloom
	certs uint64 // postings in the cert space
}

// segmentWriter streams postings, already in the data encoding and in
// strictly ascending key order, into a segment file image. The image
// is sized up front from the inputs, so a flush or a merge copies each
// posting once.
type segmentWriter struct {
	buf   []byte
	count int
}

// newSegmentWriter sizes the image for at most n postings taking
// dataLen encoded bytes in all.
func newSegmentWriter(n, dataLen int) *segmentWriter {
	return &segmentWriter{buf: make([]byte, segmentHdrLen, segmentHdrLen+dataLen+bloomLen(n)+4)}
}

func (w *segmentWriter) add(raw []byte) {
	w.buf = append(w.buf, raw...)
	w.count++
}

// finish seals the image: the bloom over every posting primary, the
// header, and the CRC.
func (w *segmentWriter) finish() []byte {
	buf := w.buf
	dataEnd := len(buf)
	buf = append(buf, make([]byte, bloomLen(w.count))...)
	bl := bloom{bits: buf[dataEnd:]}
	for p := segmentHdrLen; p < dataEnd; {
		var key []byte
		key, p = field(buf, p)
		_, p = field(buf, p)
		bl.add(postingPrimary(key))
	}
	copy(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(w.count))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(dataEnd-segmentHdrLen))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(bl.bits)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// postingPrimary slices <space> 0x00 <primary> out of a posting key —
// the unit bloom filters and exact scans work in.
func postingPrimary(key []byte) []byte {
	if len(key) < 11 {
		return key
	}
	return key[:len(key)-9] // strip 0x00 separator + 8-byte seq
}

// parseSegment validates and decodes a segment file's bytes. Any
// deviation — magic, version, lengths, CRC, unsorted keys — is an
// error; the caller quarantines the file.
func parseSegment(path string, buf []byte) (*segment, error) {
	if len(buf) < segmentHdrLen+4 {
		return nil, fmt.Errorf("index: segment %s: %d bytes, shorter than header", filepath.Base(path), len(buf))
	}
	if string(buf[0:4]) != segmentMagic {
		return nil, fmt.Errorf("index: segment %s: bad magic", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != segmentVersion {
		return nil, fmt.Errorf("index: segment %s: unknown version %d", filepath.Base(path), v)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("index: segment %s: CRC mismatch", filepath.Base(path))
	}
	count := int(binary.LittleEndian.Uint32(buf[8:12]))
	dataLen := int(binary.LittleEndian.Uint32(buf[12:16]))
	bloomLen := int(binary.LittleEndian.Uint32(buf[16:20]))
	if segmentHdrLen+dataLen+bloomLen+4 != len(buf) {
		return nil, fmt.Errorf("index: segment %s: length fields disagree with file size", filepath.Base(path))
	}
	s := &segment{
		path:  path,
		run:   run{buf: buf[segmentHdrLen : segmentHdrLen+dataLen], offs: make([]uint32, 0, count)},
		bloom: bloom{bits: buf[segmentHdrLen+dataLen : segmentHdrLen+dataLen+bloomLen]},
	}
	p := s.buf
	var prev []byte
	for i := 0; i < count; i++ {
		start := uint32(dataLen - len(p))
		key, rest, err := takeBytes(p)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: posting %d: %v", filepath.Base(path), i, err)
		}
		_, rest, err = takeBytes(rest)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: posting %d: %v", filepath.Base(path), i, err)
		}
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return nil, fmt.Errorf("index: segment %s: posting %d out of order", filepath.Base(path), i)
		}
		prev = key
		s.offs = append(s.offs, start)
		if len(key) > 0 && key[0] == spaceCert {
			s.certs++
		}
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("index: segment %s: %d trailing data bytes", filepath.Base(path), len(p))
	}
	return s, nil
}

func takeBytes(p []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, fmt.Errorf("truncated posting")
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// writeSegment durably publishes buf at path: temp → fsync → rename →
// dir-fsync, the same dance the checkpoint store uses.
func writeSegment(path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("index: creating segment temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("index: writing segment: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("index: syncing segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("index: closing segment temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("index: publishing segment: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// segmentFiles lists the committed segment files in dir, oldest first
// (the numeric naming makes lexical order creation order), and removes
// leftover temp files from crashed flushes.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, segmentSuffix+".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, segmentSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// segmentID parses the numeric id out of seg-%012d.useg, or -1.
func segmentID(path string) int64 {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segmentSuffix) {
		return -1
	}
	var id int64
	if _, err := fmt.Sscanf(name, "seg-%012d"+segmentSuffix, &id); err != nil {
		return -1
	}
	return id
}

func segmentPath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%012d%s", id, segmentSuffix))
}

// bloom is a fixed double-hash bloom filter (k=4) over posting
// primaries; it lets point lookups skip segments that cannot contain
// the queried domain/skeleton/issuer.
type bloom struct {
	bits []byte
}

const bloomHashes = 4

// bloomLen sizes a filter at ~10 bits per distinct element (≈1% false
// positives at k=4); n is the posting count, an overestimate of
// distinct primaries, which only makes the filter more accurate.
func bloomLen(n int) int {
	return max((n*10+7)/8, 8)
}

// bloomHash is FNV-1a 64 split into two 32-bit halves for double
// hashing: h_i = h1 + i*h2.
func bloomHash(p []byte) (uint32, uint32) {
	var h uint64 = 14695981039346656037
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return uint32(h >> 32), uint32(h) | 1
}

func (b bloom) add(p []byte) {
	h1, h2 := bloomHash(p)
	m := uint32(len(b.bits) * 8)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b bloom) mayContain(p []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(p)
	m := uint32(len(b.bits) * 8)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
