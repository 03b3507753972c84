package netflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sync/atomic"
)

// Binary flow file format:
//
//	magic   [4]byte  "IXFR"
//	version uint8    (1)
//	records ...      fixed 80-byte records
//
// All integers are big-endian. IPs are stored as 16 bytes; IPv4 addresses
// use the 4-in-6 mapping. The format is dense enough that 50 TB-scale IXP
// datasets (Table 2) stream through the balancer without intermediate
// allocation.

var (
	// ErrBadMagic is returned when a stream does not start with the flow
	// file magic.
	ErrBadMagic = errors.New("netflow: bad magic")
	// ErrBadVersion is returned for unknown format versions.
	ErrBadVersion = errors.New("netflow: unsupported version")
)

var fileMagic = [4]byte{'I', 'X', 'F', 'R'}

const formatVersion = 1

// RecordSize is the fixed size of one record on the wire.
const RecordSize = 80

const (
	flagBlackholed = 1 << 0
	flagFragment   = 1 << 1
	flagSrcIPv6    = 1 << 2
	flagDstIPv6    = 1 << 3
)

// marshalRecord encodes r into buf, which must be at least RecordSize
// bytes.
func marshalRecord(buf []byte, r *Record) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.Timestamp))
	src := r.SrcIP.As16()
	dst := r.DstIP.As16()
	copy(buf[8:24], src[:])
	copy(buf[24:40], dst[:])
	binary.BigEndian.PutUint16(buf[40:42], r.SrcPort)
	binary.BigEndian.PutUint16(buf[42:44], r.DstPort)
	buf[44] = r.Protocol
	buf[45] = r.TCPFlags
	var flags uint8
	if r.Blackholed {
		flags |= flagBlackholed
	}
	if r.Fragment {
		flags |= flagFragment
	}
	// Address families are flagged per address: a record may mix a v6
	// source with a v4 destination (a shared flag would corrupt the
	// destination into a 4-in-6 mapped address on decode).
	if r.SrcIP.Is6() && !r.SrcIP.Is4In6() {
		flags |= flagSrcIPv6
	}
	if r.DstIP.Is6() && !r.DstIP.Is4In6() {
		flags |= flagDstIPv6
	}
	buf[46] = flags
	buf[47] = 0
	copy(buf[48:54], r.SrcMAC[:])
	copy(buf[54:60], r.DstMAC[:])
	binary.BigEndian.PutUint32(buf[60:64], r.SamplingRate)
	binary.BigEndian.PutUint64(buf[64:72], r.Packets)
	binary.BigEndian.PutUint64(buf[72:80], r.Bytes)
}

// AppendRecord appends the RecordSize-byte wire encoding of r to dst. It is
// the one record codec: flow files, the diskbuffer WAL and the pipeline
// checkpoint all store records in this form.
func AppendRecord(dst []byte, r *Record) []byte {
	n := len(dst)
	dst = slices.Grow(dst, RecordSize)[:n+RecordSize]
	marshalRecord(dst[n:], r)
	return dst
}

// DecodeRecord decodes the first RecordSize bytes of src into r; src must
// hold at least that many. Every byte pattern decodes to some record.
func DecodeRecord(src []byte, r *Record) {
	unmarshalRecord(src[:RecordSize], r)
}

func unmarshalRecord(buf []byte, r *Record) {
	r.Timestamp = int64(binary.BigEndian.Uint64(buf[0:8]))
	var a16 [16]byte
	flags := buf[46]
	copy(a16[:], buf[8:24])
	r.SrcIP = addrFrom16(a16, flags&flagSrcIPv6 != 0)
	copy(a16[:], buf[24:40])
	r.DstIP = addrFrom16(a16, flags&flagDstIPv6 != 0)
	r.SrcPort = binary.BigEndian.Uint16(buf[40:42])
	r.DstPort = binary.BigEndian.Uint16(buf[42:44])
	r.Protocol = buf[44]
	r.TCPFlags = buf[45]
	r.Blackholed = flags&flagBlackholed != 0
	r.Fragment = flags&flagFragment != 0
	copy(r.SrcMAC[:], buf[48:54])
	copy(r.DstMAC[:], buf[54:60])
	r.SamplingRate = binary.BigEndian.Uint32(buf[60:64])
	r.Packets = binary.BigEndian.Uint64(buf[64:72])
	r.Bytes = binary.BigEndian.Uint64(buf[72:80])
}

func addrFrom16(a [16]byte, isV6 bool) netip.Addr {
	// Always canonicalize 4-in-6 mappings, even when the v6 flag claims
	// otherwise (corrupt or crafted input): the pipeline compares addresses
	// against unmapped v4 prefixes, so a non-canonical ::ffff:a.b.c.d
	// leaking out of the reader would silently fail every registry lookup.
	//
	// Sixteen zero bytes without the v6 flag are the unset address: As16 of
	// netip.Addr{} is all zero, and "::" itself always carries the flag, so
	// decoding them as "::" would turn an unset address into a valid one.
	if !isV6 && a == [16]byte{} {
		return netip.Addr{}
	}
	addr := netip.AddrFrom16(a)
	if !isV6 || addr.Is4In6() {
		return addr.Unmap()
	}
	return addr
}

// Writer streams flow records to an io.Writer in the binary flow format.
type Writer struct {
	w     *bufio.Writer
	buf   [RecordSize]byte
	count int
	began bool
}

// NewWriter returns a Writer emitting to w. The header is written lazily on
// the first record (or on Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) begin() error {
	if w.began {
		return nil
	}
	w.began = true
	if _, err := w.w.Write(fileMagic[:]); err != nil {
		return fmt.Errorf("netflow: writing header: %w", err)
	}
	if err := w.w.WriteByte(formatVersion); err != nil {
		return fmt.Errorf("netflow: writing header: %w", err)
	}
	return nil
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	if err := w.begin(); err != nil {
		return err
	}
	marshalRecord(w.buf[:], r)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("netflow: writing record %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.count }

// Flush writes the header if no record has been written yet and flushes
// buffered data.
func (w *Writer) Flush() error {
	if err := w.begin(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("netflow: flush: %w", err)
	}
	return nil
}

// ReaderStats counts reader activity. Fields are atomic so a metrics
// scrape can read them while the ingest goroutine streams records.
type ReaderStats struct {
	Records   atomic.Uint64 // records decoded
	Truncated atomic.Uint64 // mid-record or mid-header truncations
	Malformed atomic.Uint64 // bad magic or unsupported version
}

// Reader streams flow records from an io.Reader.
type Reader struct {
	r     *bufio.Reader
	buf   [RecordSize]byte
	bulk  []byte // ReadBatch scratch, allocated on first use
	began bool

	Stats ReaderStats
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) begin() error {
	if r.began {
		return nil
	}
	r.began = true
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		r.Stats.Truncated.Add(1)
		return fmt.Errorf("netflow: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != fileMagic {
		r.Stats.Malformed.Add(1)
		return ErrBadMagic
	}
	if hdr[4] != formatVersion {
		r.Stats.Malformed.Add(1)
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	return nil
}

// Read fills rec with the next record. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF for a mid-record truncation.
func (r *Reader) Read(rec *Record) error {
	if err := r.begin(); err != nil {
		return err
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		r.Stats.Truncated.Add(1)
		return fmt.Errorf("netflow: reading record: %w", err)
	}
	unmarshalRecord(r.buf[:], rec)
	r.Stats.Records.Add(1)
	return nil
}

// ReadBatch fills dst with up to len(dst) records and returns how many were
// decoded. It amortizes the per-record ReadFull and stats updates of Read:
// one bulk read and one atomic add per batch. A short final batch is not an
// error; n == 0 with err == io.EOF marks a clean end of stream, and a
// mid-record truncation surfaces as io.ErrUnexpectedEOF after the preceding
// whole records are returned.
func (r *Reader) ReadBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if err := r.begin(); err != nil {
		return 0, err
	}
	if r.bulk == nil {
		r.bulk = make([]byte, batchReadRecords*RecordSize)
	}
	want := len(dst)
	if want > batchReadRecords {
		want = batchReadRecords
	}
	nb, err := io.ReadFull(r.r, r.bulk[:want*RecordSize])
	n := nb / RecordSize
	for i := 0; i < n; i++ {
		unmarshalRecord(r.bulk[i*RecordSize:], &dst[i])
	}
	if n > 0 {
		r.Stats.Records.Add(uint64(n))
	}
	switch {
	case err == nil:
		return n, nil
	case errors.Is(err, io.ErrUnexpectedEOF) && nb%RecordSize == 0:
		// Clean EOF on a record boundary, reported on this call if no whole
		// record was read, else on the next.
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	case errors.Is(err, io.EOF):
		return 0, io.EOF
	default:
		r.Stats.Truncated.Add(1)
		return n, fmt.Errorf("netflow: reading record: %w", io.ErrUnexpectedEOF)
	}
}

// batchReadRecords caps one ReadBatch bulk read (64 KiB of wire data).
const batchReadRecords = 819

// ReadAll reads every remaining record. Intended for tests and small sets;
// production paths stream with Read.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		var rec Record
		err := r.Read(&rec)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
