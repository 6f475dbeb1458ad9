package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"dctraffic/internal/netsim"
)

// TestBinaryRoundTrip checks every field survives the fixed-width
// codec, including negative tag values, the canceled flag and the port
// pair.
func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords(1000)
	recs[0].Canceled = true
	recs[1].Tag = netsim.FlowTag{Job: -3, Phase: 7, Vertex: 1 << 30, Kind: netsim.KindEvacuate}
	recs[2].Start, recs[2].End = -5, -1 // relative times may be negative
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("binary round trip altered records")
	}
	// The whole point of the codec: meaningfully smaller than JSONL.
	var jbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= jbuf.Len() {
		t.Fatalf("binary %d bytes >= JSONL %d bytes", buf.Len(), jbuf.Len())
	}
}

// TestBinaryEmpty round-trips a record-less stream (header only).
func TestBinaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records from empty stream", len(got))
	}
}

// TestBinaryRejects pins the error paths: bad magic, unknown version,
// and truncation mid-record (which must NOT read as a clean EOF).
func TestBinaryRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleRecords(3)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[5] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Fatal("mid-record truncation read as clean EOF")
	}
	if _, err := ReadBinary(bytes.NewReader(data[:3])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestBinaryReaderStreams checks the incremental reader agrees with the
// batch helper and terminates with an unwrapped io.EOF.
func TestBinaryReaderStreams(t *testing.T) {
	recs := sampleRecords(10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rd, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		rec, err := rd.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("tail read: %v, want io.EOF", err)
	}
}

// FuzzReadBinary mirrors FuzzReadJSONL for the binary codec: arbitrary
// input never panics, and any input that decodes cleanly re-encodes to
// an identical record sequence.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleRecords(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:binaryHeaderLen])
	f.Add(buf.Bytes()[:buf.Len()-5])
	f.Add([]byte(""))
	f.Add([]byte("DCTB"))
	f.Add([]byte("DCTB\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadBinary(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, recs); err != nil {
			t.Fatalf("re-encode of valid decode failed: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatal("binary codec round trip unstable")
		}
	})
}

// WriteBinary writes records through a BinaryWriter: the round-trip
// helper of the codec tests and benchmarks.
func WriteBinary(w io.Writer, records []FlowRecord) error {
	bw, err := NewBinaryWriter(w)
	if err != nil {
		return err
	}
	for i := range records {
		if err := bw.Write(&records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary drains a BinaryReader into memory.
func ReadBinary(r io.Reader) ([]FlowRecord, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []FlowRecord
	for {
		rec, err := br.Read()
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
