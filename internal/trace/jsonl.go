package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

// JSONL trace codec: one FlowRecord per line, the format cmd/dcsim
// emits and cmd/dcanalyze reads. The line is exactly what
// encoding/json's Encoder writes for a FlowRecord — the struct tags'
// keys in field order, the nested tag object with its capitalised keys,
// "canceled" only when true, then '\n' — but appendJSONL writes it with
// strconv and parseJSONL reads it back without reflection. Reader
// hands any other input to encoding/json, which also serves the tests
// as the oracle for both directions.

// minJSONLLine is the length of the shortest line appendJSONL writes:
// every number one digit, no "canceled" key.
const minJSONLLine = 119

// appendJSONL appends rec's JSON line, newline included, to b.
func appendJSONL(b []byte, rec *FlowRecord) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(rec.ID), 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(rec.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(rec.Dst), 10)
	b = append(b, `,"sport":`...)
	b = strconv.AppendUint(b, uint64(rec.SrcPort), 10)
	b = append(b, `,"dport":`...)
	b = strconv.AppendUint(b, uint64(rec.DstPort), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(rec.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(rec.End), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, rec.Bytes, 10)
	b = append(b, `,"tag":{"Job":`...)
	b = strconv.AppendInt(b, int64(rec.Tag.Job), 10)
	b = append(b, `,"Phase":`...)
	b = strconv.AppendInt(b, int64(rec.Tag.Phase), 10)
	b = append(b, `,"Vertex":`...)
	b = strconv.AppendInt(b, int64(rec.Tag.Vertex), 10)
	b = append(b, `,"Kind":`...)
	b = strconv.AppendUint(b, uint64(rec.Tag.Kind), 10)
	if rec.Canceled {
		return append(b, "},\"canceled\":true}\n"...)
	}
	return append(b, "}}\n"...)
}

// parseJSONL decodes a line of appendJSONL's form, newline included,
// into rec, and reports whether line had that form. On false rec holds
// garbage, and encoding/json must decide what the line means: it may
// still be valid (other key order, whitespace, other number spellings)
// or an error (a value out of its field's range).
func parseJSONL(line []byte, rec *FlowRecord) bool {
	s := lineScanner{b: line, ok: true}
	rec.ID = netsim.FlowID(s.int(`{"id":`, 64))
	rec.Src = topology.ServerID(s.int(`,"src":`, strconv.IntSize))
	rec.Dst = topology.ServerID(s.int(`,"dst":`, strconv.IntSize))
	rec.SrcPort = uint16(s.uint(`,"sport":`, 16))
	rec.DstPort = uint16(s.uint(`,"dport":`, 16))
	rec.Start = netsim.Time(s.int(`,"start":`, 64))
	rec.End = netsim.Time(s.int(`,"end":`, 64))
	rec.Bytes = s.int(`,"bytes":`, 64)
	rec.Tag.Job = int(s.int(`,"tag":{"Job":`, strconv.IntSize))
	rec.Tag.Phase = int(s.int(`,"Phase":`, strconv.IntSize))
	rec.Tag.Vertex = int(s.int(`,"Vertex":`, strconv.IntSize))
	rec.Tag.Kind = netsim.FlowKind(s.uint(`,"Kind":`, 8))
	switch string(s.b) {
	case "}}\n":
		rec.Canceled = false
	case "},\"canceled\":true}\n":
		rec.Canceled = true
	default:
		return false
	}
	return s.ok
}

// lineScanner consumes a line of appendJSONL's form one field at a
// time. ok turns false at the first departure from that form, and every
// later call is then a no-op.
type lineScanner struct {
	b  []byte
	ok bool
}

// int consumes key, the literal in front of a value, and a signed value
// that fits in bits bits.
func (s *lineScanner) int(key string, bits int) int64 {
	if !s.key(key) {
		return 0
	}
	neg := len(s.b) > 0 && s.b[0] == '-'
	if neg {
		s.b = s.b[1:]
	}
	u := s.digits()
	limit := uint64(1) << (bits - 1)
	if neg && u > limit || !neg && u >= limit {
		s.ok = false
		return 0
	}
	if neg {
		return int64(-u)
	}
	return int64(u)
}

// uint consumes key and an unsigned value that fits in bits bits.
func (s *lineScanner) uint(key string, bits int) uint64 {
	if !s.key(key) {
		return 0
	}
	u := s.digits()
	if u>>bits != 0 {
		s.ok = false
		return 0
	}
	return u
}

func (s *lineScanner) key(key string) bool {
	if !s.ok || len(s.b) < len(key) || string(s.b[:len(key)]) != key {
		s.ok = false
		return false
	}
	s.b = s.b[len(key):]
	return true
}

// digits consumes the decimal digits strconv.Append* writes: one to 19
// of them (an int64 has at most 19), and no leading zero.
func (s *lineScanner) digits() uint64 {
	b := s.b
	var u uint64
	i := 0
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	if i == 0 || i > 19 || i > 1 && b[0] == '0' {
		s.ok = false
		return 0
	}
	s.b = b[i:]
	return u
}

// Writer streams flow records to an io.Writer one JSON line at a time
// (the format cmd/dcsim emits and cmd/dcanalyze reads), so a
// paper-scale trace never needs to be fully materialized in memory.
// Call Flush when done.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // one encoded line, reused
	n   int
}

// NewWriter returns a streaming JSONL trace writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one record to the stream.
func (w *Writer) Write(rec *FlowRecord) error {
	w.buf = appendJSONL(w.buf[:0], rec)
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("trace: encode record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Count reports the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// jsonlReadBuf is Reader's buffer size, and so the longest line the
// fast path sees whole. A 4 KiB buffer costs a read call per ~20 lines,
// which is a fifth of the fast path's time on a trace file.
const jsonlReadBuf = 1 << 16

// Reader streams flow records from a JSONL trace one record at a time.
// Lines in Writer's form parse without reflection; at the first line
// that is not, the rest of the stream goes to encoding/json, so any
// stream of JSON values decodes exactly as encoding/json decodes it.
type Reader struct {
	br  *bufio.Reader
	dec *json.Decoder // set once the stream has left Writer's form
	n   int
}

// NewReader returns a streaming JSONL trace reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, jsonlReadBuf)}
}

// Read returns the next record. It returns io.EOF (unwrapped) at the
// end of the stream.
func (r *Reader) Read() (FlowRecord, error) {
	if r.dec == nil {
		var rec FlowRecord
		line, err := r.br.ReadSlice('\n')
		if err == nil && parseJSONL(line, &rec) {
			r.n++
			return rec, nil
		}
		if err == io.EOF && len(line) == 0 {
			return FlowRecord{}, io.EOF
		}
		r.fallBack(line, err)
	}
	return r.decode()
}

// fallBack hands the stream to encoding/json from the start of line,
// which ReadSlice returned with err: a line the fast path rejected
// (err nil), the first jsonlReadBuf bytes of a longer one
// (bufio.ErrBufferFull), or the input's last bytes before its end or
// its failure. bufio reports a read error only once, and the input must
// not be read again after it, so the decoder then sees the error itself
// after line.
func (r *Reader) fallBack(line []byte, err error) {
	var rest io.Reader = r.br
	if err != nil && err != bufio.ErrBufferFull {
		rest = errReader{err}
	}
	r.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
}

// decode reads the next record with encoding/json. It is apart from
// Read so that the record it hands to Decode, which escapes, is not the
// fast path's.
func (r *Reader) decode() (FlowRecord, error) {
	var rec FlowRecord
	if err := r.dec.Decode(&rec); err == io.EOF {
		return rec, io.EOF
	} else if err != nil {
		return rec, fmt.Errorf("trace: decode record %d: %w", r.n, err)
	}
	r.n++
	return rec, nil
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// WriteJSONL writes a fully-materialized record slice as JSONL — a
// convenience over Writer for in-memory traces.
func WriteJSONL(w io.Writer, records []FlowRecord) error {
	tw := NewWriter(w)
	for i := range records {
		if err := tw.Write(&records[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadJSONL parses an entire JSONL flow-record stream into memory — a
// convenience over Reader for small traces.
func ReadJSONL(r io.Reader) ([]FlowRecord, error) {
	tr := NewReader(r)
	var out []FlowRecord
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
