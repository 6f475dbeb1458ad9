package trace

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

// decodeReference is the encoding/json oracle for Reader: a Decoder
// loop over r, returning the records decoded before the first error.
func decodeReference(r io.Reader) ([]FlowRecord, error) {
	dec := json.NewDecoder(r)
	var out []FlowRecord
	for {
		var rec FlowRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// readAll drains r, returning the records read before the first error.
func readAll(r *Reader) ([]FlowRecord, error) {
	var out []FlowRecord
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// sameDecode fails t unless the reader under test and the reference
// agree on whether the stream is valid and on its records.
func sameDecode(t *testing.T, got []FlowRecord, err error, want []FlowRecord, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("verdict differs from encoding/json: got error %v, want %v", err, wantErr)
	}
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ from encoding/json:\n got %+v\nwant %+v", got, want)
	}
}

// extremeRecord has every field at a range limit or negative, and is
// canceled.
var extremeRecord = FlowRecord{
	ID: math.MinInt64, Src: math.MinInt, Dst: math.MaxInt,
	SrcPort: math.MaxUint16, DstPort: 0,
	Start: math.MaxInt64, End: math.MinInt64, Bytes: -1,
	Tag:      netsim.FlowTag{Job: -7, Phase: math.MinInt, Vertex: math.MaxInt, Kind: math.MaxUint8},
	Canceled: true,
}

// jsonlSeeds are the decode fuzzes' seed inputs: Writer's own output,
// and the valid and invalid streams that must leave the fast path.
func jsonlSeeds(tb testing.TB) [][]byte {
	var plain, mixed bytes.Buffer
	if err := WriteJSONL(&plain, sampleRecords(3)); err != nil {
		tb.Fatal(err)
	}
	recs := sampleRecords(3)
	recs[1].Canceled = true
	recs[2].Tag.Job = -2
	if err := WriteJSONL(&mixed, append(recs, extremeRecord)); err != nil {
		tb.Fatal(err)
	}
	const line = `{"id":1,"src":2,"dst":3,"sport":4,"dport":5,"start":6,"end":7,"bytes":8,"tag":{"Job":9,"Phase":10,"Vertex":11,"Kind":1}}` + "\n"
	with := func(from, to string) string { return strings.Replace(line, from, to, 1) }
	seeds := []string{
		plain.String(),
		"",
		"{\"id\":1}\n{bad",
		"null\nnull\n",
		mixed.String(),
		// Valid JSON outside Writer's form: key order, whitespace, line
		// ends, unknown fields, key case, duplicate keys, nulls.
		`{"src":2,"id":1,"dst":3,"sport":4,"dport":5,"start":6,"end":7,"bytes":8,"tag":{"Kind":1,"Job":9,"Phase":10,"Vertex":11}}` + "\n",
		with(`"src":2`, ` "src" : 2 `) + line,
		strings.Replace(line, "\n", "\r\n", 1) + line,
		line + with(`"bytes":8`, `"bytes":8,"pad":[1,{"x":null}],"extra":"y"`) + line,
		with(`"id"`, `"ID"`) + with(`"Job"`, `"job"`) + with(`"sport"`, `"SPORT"`),
		with(`"id":1`, `"id":1,"id":2`) + with(`"Kind":1`, `"Kind":1,"Kind":2`),
		line + "null\n" + line + "  \n\n",
		// Numbers: other spellings, and values out of their field's range.
		with(`"id":1`, `"id":-0`) + line,
		with(`"dst":3`, `"dst":03`) + line,
		with(`"bytes":8`, `"bytes":1e3`) + line,
		with(`"end":7`, `"end":1.0`),
		with(`"sport":4`, `"sport":70000`),
		with(`"sport":4`, `"sport":-1`),
		with(`"Kind":1`, `"Kind":256`),
		with(`"id":1`, `"id":9223372036854775808`),
		with(`"start":6`, `"start":-9223372036854775809`),
		with(`"start":6`, `"start":123456789012345678901234567890`),
		with(`"bytes":8`, `"bytes":18446744073709551617`), // 2⁶⁴+1
		// The canceled flag, and lines that are not one value each.
		with(`}}`, `},"canceled":false}`) + with(`}}`, `},"canceled":true}`),
		with(`}}`, `},"canceled":1}`),
		strings.TrimSuffix(line, "\n") + line,
		strings.TrimSuffix(line, "\n") + " " + line,
		line + strings.TrimSuffix(line, "\n"),
		line + with(`"bytes":8`, `"bytes":8`+strings.Repeat(" ", 5000)) + line,
		line + with(`"bytes":8`, `"bytes":8,"pad":"`+strings.Repeat("x", jsonlReadBuf+10)+`"`) + line,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzReadJSONL holds ReadJSONL to encoding/json on arbitrary input:
// the same accept/reject verdict and, on accept, the same records.
func FuzzReadJSONL(f *testing.F) {
	for _, s := range jsonlSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeReference(bytes.NewReader(data))
		// Reader, up to the first error...
		got, err := readAll(NewReader(bytes.NewReader(data)))
		sameDecode(t, got, err, want, wantErr)
		// ...and ReadJSONL, which returns no records with an error.
		if wantErr != nil {
			want = nil
		}
		got, err = ReadJSONL(bytes.NewReader(data))
		sameDecode(t, got, err, want, wantErr)
	})
}

// FuzzReadJSONLGz holds the .gz trace path users run — OpenFile on a
// *.jsonl.gz file, drained — to encoding/json's decode of the same
// gzip stream: the same accept/reject verdict and, on accept, the same
// records. OpenFile sorts what it reads, so the records are compared as
// multisets, both sides sorted canonically.
func FuzzReadJSONLGz(f *testing.F) {
	var buf bytes.Buffer
	if _, _, err := WriteJSONLGz(&buf, sampleRecords(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("not gzip at all"))
	f.Add(buf.Bytes()[:buf.Len()-4]) // truncated trailer
	for _, s := range jsonlSeeds(f) {
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		if _, err := w.Write(s); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(gz.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "trace.jsonl.gz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []FlowRecord
		src, err := OpenFile(path, FileOptions{TempDir: dir})
		if err == nil {
			got = drain(t, src)
			src.Close()
		}
		var want []FlowRecord
		gz, wantErr := gzip.NewReader(bytes.NewReader(data))
		if wantErr == nil {
			if want, wantErr = decodeReference(gz); wantErr != nil {
				want = nil
			}
		}
		sameDecode(t, sortedMultiset(got), err, sortedMultiset(want), wantErr)
	})
}

// sortedMultiset sorts a copy of records canonically, breaking (Start,
// ID) ties on the rest of the record, so any two orders of one multiset
// sort identically.
func sortedMultiset(records []FlowRecord) []FlowRecord {
	out := slices.Clone(records)
	slices.SortFunc(out, func(a, b FlowRecord) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	})
	return out
}

// FuzzWriteJSONL holds the encoder to encoding/json byte for byte, and
// the fast decoder to reading every encoded line back unchanged.
func FuzzWriteJSONL(f *testing.F) {
	f.Add(int64(1), 2, 3, uint16(1024), uint16(443), int64(0), int64(1e9), int64(99), 7, 0, 0, uint8(netsim.KindShuffle), false)
	e := extremeRecord
	f.Add(int64(e.ID), int(e.Src), int(e.Dst), e.SrcPort, e.DstPort, int64(e.Start), int64(e.End), e.Bytes,
		e.Tag.Job, e.Tag.Phase, e.Tag.Vertex, uint8(e.Tag.Kind), e.Canceled)
	f.Fuzz(func(t *testing.T, id int64, src, dst int, sport, dport uint16, start, end, size int64,
		job, phase, vertex int, kind uint8, canceled bool) {
		rec := FlowRecord{
			ID: netsim.FlowID(id), Src: topology.ServerID(src), Dst: topology.ServerID(dst),
			SrcPort: sport, DstPort: dport, Start: netsim.Time(start), End: netsim.Time(end), Bytes: size,
			Tag:      netsim.FlowTag{Job: job, Phase: phase, Vertex: vertex, Kind: netsim.FlowKind(kind)},
			Canceled: canceled,
		}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendJSONL(nil, &rec)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded\n %s\nencoding/json\n %s", got, want)
		}
		var back FlowRecord
		if !parseJSONL(got, &back) {
			t.Fatalf("fast decoder rejected its own line %s", got)
		}
		if back != rec {
			t.Fatalf("fast decoder read %+v back as %+v", rec, back)
		}
	})
}

// TestReaderReadSizes: how the input splits into reads must not change
// what Reader returns, on either side of the fallback.
func TestReaderReadSizes(t *testing.T) {
	for i, data := range jsonlSeeds(t) {
		want, wantErr := readAll(NewReader(bytes.NewReader(data)))
		for _, wrap := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader, iotest.DataErrReader} {
			got, err := readAll(NewReader(wrap(bytes.NewReader(data))))
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) ||
				err != nil && err.Error() != wantErr.Error() {
				t.Errorf("seed %d, %T reads: got %d records, %v; want %d, %v", i, wrap(nil), len(got), err, len(want), wantErr)
			}
		}
	}
}

// failAfter fails every Read with err, counting the calls.
type failAfter struct {
	err   error
	calls int
}

func (f *failAfter) Read([]byte) (int, error) {
	f.calls++
	return 0, f.err
}

// TestReaderReadError cuts the input at every offset with a read error
// and holds Reader to encoding/json: the same records, then an error
// wrapping the same cause. In Writer's form the failing input is read
// exactly once, because bufio has already returned its error.
func TestReaderReadError(t *testing.T) {
	var canonical bytes.Buffer
	recs := sampleRecords(4)
	recs[2].Canceled = true
	if err := WriteJSONL(&canonical, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(canonical.String(), "\n")
	mixed := lines[0] + strings.Replace(lines[1], `{"id":1,`, `{ "id" : 1, `, 1) + strings.Join(lines[2:], "")
	cause := errors.New("disk on fire")
	for _, tc := range []struct {
		name      string
		data      string
		readsOnce bool
		wrap      func(io.Reader) io.Reader
	}{
		{name: "writer", data: canonical.String(), readsOnce: true},
		{name: "writer/one-byte", data: canonical.String(), readsOnce: true, wrap: iotest.OneByteReader},
		{name: "mixed", data: mixed},
		{name: "mixed/half", data: mixed, wrap: iotest.HalfReader},
	} {
		for k := 0; k <= len(tc.data); k++ {
			input := func() (io.Reader, *failAfter) {
				fail := &failAfter{err: cause}
				var r io.Reader = io.MultiReader(strings.NewReader(tc.data[:k]), fail)
				if tc.wrap != nil {
					r = tc.wrap(r)
				}
				return r, fail
			}
			r, fail := input()
			got, err := readAll(NewReader(r))
			ref, _ := input()
			want, wantErr := decodeReference(ref)
			if !errors.Is(wantErr, cause) {
				t.Fatalf("%s, cut at %d: reference error %v does not wrap the cause", tc.name, k, wantErr)
			}
			if !reflect.DeepEqual(got, want) || !errors.Is(err, cause) {
				t.Fatalf("%s, cut at %d: got %d records, %v; want %d, %v", tc.name, k, len(got), err, len(want), wantErr)
			}
			if tc.readsOnce && fail.calls != 1 {
				t.Fatalf("%s, cut at %d: failing input read %d times, want once", tc.name, k, fail.calls)
			}
		}
	}
}
