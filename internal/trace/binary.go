package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

// Binary trace codec. JSONL (Writer/Reader) stays the interchange
// format dcsim emits and dcanalyze reads; the binary codec exists for
// internal I/O on hot paths — FileSource's external-sort spill chunks
// read and write it — where its records, half the size of JSONL lines,
// spill and merge faster. The stream is a 6-byte header (4-byte magic,
// a format byte, a version byte) followed by length-prefixed
// little-endian records: a uvarint payload length, then the fixed
// 78-byte v1 payload. The length prefix is what lets future versions
// grow the payload without breaking old readers' framing.
const (
	binaryFormatFixed   = 0x01 // fixed-width record payloads
	binaryVersion       = 0x01
	binaryRecordLen     = 78
	binaryRecordLenMax  = 1 << 12 // sanity bound on the length prefix
	binaryCanceledFlag  = 0x01
	binaryHeaderMagic   = "DCTB"
	binaryHeaderLen     = 6
	binaryFramedRecBuf  = binary.MaxVarintLen64 + binaryRecordLen
	binaryWriterBufSize = 1 << 16
)

// BinaryWriter streams flow records in the binary trace format.
// Call Flush when done.
type BinaryWriter struct {
	bw *bufio.Writer
	n  int
	// buf is the framing scratch: a stack array would escape through
	// bufio.Writer.Write and cost one allocation per record.
	buf [binaryFramedRecBuf]byte
}

// NewBinaryWriter writes the format header and returns a record writer
// over w.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := bufio.NewWriterSize(w, binaryWriterBufSize)
	var hdr [binaryHeaderLen]byte
	copy(hdr[:], binaryHeaderMagic)
	hdr[4] = binaryFormatFixed
	hdr[5] = binaryVersion
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: write binary header: %w", err)
	}
	return &BinaryWriter{bw: bw}, nil
}

// Write appends one record to the stream.
func (w *BinaryWriter) Write(rec *FlowRecord) error {
	buf := w.buf[:]
	n := binary.PutUvarint(buf, binaryRecordLen)
	p := buf[n : n+binaryRecordLen]
	le := binary.LittleEndian
	le.PutUint64(p[0:], uint64(rec.ID))
	le.PutUint64(p[8:], uint64(rec.Src))
	le.PutUint64(p[16:], uint64(rec.Dst))
	le.PutUint16(p[24:], rec.SrcPort)
	le.PutUint16(p[26:], rec.DstPort)
	le.PutUint64(p[28:], uint64(rec.Start))
	le.PutUint64(p[36:], uint64(rec.End))
	le.PutUint64(p[44:], uint64(rec.Bytes))
	le.PutUint64(p[52:], uint64(rec.Tag.Job))
	le.PutUint64(p[60:], uint64(rec.Tag.Phase))
	le.PutUint64(p[68:], uint64(rec.Tag.Vertex))
	p[76] = uint8(rec.Tag.Kind)
	var flags uint8
	if rec.Canceled {
		flags |= binaryCanceledFlag
	}
	p[77] = flags
	if _, err := w.bw.Write(buf[:n+binaryRecordLen]); err != nil {
		return fmt.Errorf("trace: write binary record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Count reports the number of records written so far.
func (w *BinaryWriter) Count() int { return w.n }

// Flush writes any buffered output to the underlying writer.
func (w *BinaryWriter) Flush() error { return w.bw.Flush() }

// BinaryReader streams flow records from a binary trace.
type BinaryReader struct {
	br  *bufio.Reader
	n   int
	buf [binaryRecordLenMax]byte
}

// NewBinaryReader validates the format header and returns a record
// reader over r.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReaderSize(r, binaryWriterBufSize)
	var hdr [binaryHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", err)
	}
	if string(hdr[:4]) != binaryHeaderMagic {
		return nil, fmt.Errorf("trace: bad binary magic %q", hdr[:4])
	}
	if hdr[4] != binaryFormatFixed {
		return nil, fmt.Errorf("trace: unknown binary format byte %#x", hdr[4])
	}
	if hdr[5] != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", hdr[5])
	}
	return &BinaryReader{br: br}, nil
}

// Read returns the next record. It returns io.EOF (unwrapped) at the
// end of the stream; a stream truncated mid-record is an error.
func (r *BinaryReader) Read() (FlowRecord, error) {
	var rec FlowRecord
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return rec, io.EOF
	}
	if err != nil {
		return rec, fmt.Errorf("trace: binary record %d length: %w", r.n, err)
	}
	if n < binaryRecordLen || n > binaryRecordLenMax {
		return rec, fmt.Errorf("trace: binary record %d has implausible length %d", r.n, n)
	}
	p := r.buf[:n]
	if _, err := io.ReadFull(r.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return rec, fmt.Errorf("trace: binary record %d payload: %w", r.n, err)
	}
	le := binary.LittleEndian
	rec.ID = netsim.FlowID(le.Uint64(p[0:]))
	rec.Src = topology.ServerID(le.Uint64(p[8:]))
	rec.Dst = topology.ServerID(le.Uint64(p[16:]))
	rec.SrcPort = le.Uint16(p[24:])
	rec.DstPort = le.Uint16(p[26:])
	rec.Start = netsim.Time(le.Uint64(p[28:]))
	rec.End = netsim.Time(le.Uint64(p[36:]))
	rec.Bytes = int64(le.Uint64(p[44:]))
	rec.Tag.Job = int(int64(le.Uint64(p[52:])))
	rec.Tag.Phase = int(int64(le.Uint64(p[60:])))
	rec.Tag.Vertex = int(int64(le.Uint64(p[68:])))
	rec.Tag.Kind = netsim.FlowKind(p[76])
	rec.Canceled = p[77]&binaryCanceledFlag != 0
	// Bytes beyond offset 78 belong to a future minor revision and are
	// ignored; the version byte gates incompatible changes.
	r.n++
	return rec, nil
}
