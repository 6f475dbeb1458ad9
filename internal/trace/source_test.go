package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dctraffic/internal/netsim"
)

// drain reads a source to EOF.
func drain(t *testing.T, src Source) []FlowRecord {
	t.Helper()
	var out []FlowRecord
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// canonicalCopy sorts a copy of records by (Start, ID).
func canonicalCopy(records []FlowRecord) []FlowRecord {
	out := make([]FlowRecord, len(records))
	copy(out, records)
	sort.Slice(out, func(a, b int) bool { return recordLess(&out[a], &out[b]) })
	return out
}

func TestSliceSourceCanonicalOrder(t *testing.T) {
	top := testTopology(t)
	recs := randomRecords(t, top, 2000, netsim.Time(5*time.Minute))
	// Shuffle away from insertion order to prove sorting happens.
	for i := range recs {
		j := (i * 7919) % len(recs)
		recs[i], recs[j] = recs[j], recs[i]
	}
	got := drain(t, NewSliceSource(recs))
	want := canonicalCopy(recs)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// writeTraceFile writes records (in the given order) as a JSONL file.
func writeTraceFile(t *testing.T, records []FlowRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// FileSource must deliver the identical canonical sequence as
// SliceSource over the same records, at every chunk size — including
// chunk sizes that force multi-spill external merges — because digest
// identity between the in-memory and streaming analysis paths rests on
// exactly this.
//
// The inputs cover each way OpenFile sizes its first chunk: the
// Writer's lines (capacity from the file size), the same lines gzipped
// (no size known), and lines shorter than any the Writer writes, which
// encoding/json decodes and which hold more records than the file size
// predicts.
func TestFileSourceMatchesSliceSourceAcrossChunkSizes(t *testing.T) {
	top := testTopology(t)
	recs := randomRecords(t, top, 3000, netsim.Time(5*time.Minute))
	want := drain(t, NewSliceSource(recs))

	dir := t.TempDir()
	gzPath := filepath.Join(dir, "trace.jsonl.gz")
	var gz bytes.Buffer
	if _, _, err := WriteJSONLGz(&gz, recs); err != nil {
		t.Fatal(err)
	}
	// randomRecords leaves ports and tags zero, so the short form needs
	// only six keys.
	shortPath := filepath.Join(dir, "short.jsonl")
	var short bytes.Buffer
	for _, r := range recs {
		line := fmt.Sprintf(`{"id":%d,"src":%d,"dst":%d,"start":%d,"end":%d,"bytes":%d}`+"\n",
			r.ID, r.Src, r.Dst, r.Start, r.End, r.Bytes)
		if len(line) >= minJSONLLine {
			t.Fatalf("short line is %d bytes, want under %d", len(line), minJSONLLine)
		}
		short.WriteString(line)
	}
	if err := os.WriteFile(gzPath, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shortPath, short.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{writeTraceFile(t, recs), gzPath, shortPath} {
		name := filepath.Base(path)
		for _, chunk := range []int{0, 7, 64, 1000, 100000} {
			src, err := OpenFile(path, FileOptions{SortChunk: chunk, TempDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s, chunk %d: %v", name, chunk, err)
			}
			got := drain(t, src)
			if err := src.Close(); err != nil {
				t.Fatalf("%s, chunk %d: close: %v", name, chunk, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, chunk %d: got %d records, want %d", name, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, chunk %d: record %d: %+v != %+v", name, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// minJSONLLine is the shortest line the Writer writes: OpenFile's
// chunk capacity rests on it.
func TestMinJSONLLine(t *testing.T) {
	if n := len(appendJSONL(nil, &FlowRecord{})); n != minJSONLLine {
		t.Fatalf("zero record's line is %d bytes, minJSONLLine is %d", n, minJSONLLine)
	}
}

// A tiny chunk size with thousands of records exercises the multi-pass
// merge (spill count far above the fan-in); spill files must all be
// gone after Close.
func TestFileSourceSpillCleanup(t *testing.T) {
	top := testTopology(t)
	recs := randomRecords(t, top, 2000, netsim.Time(2*time.Minute))
	path := writeTraceFile(t, recs)
	tmp := t.TempDir()
	src, err := OpenFile(path, FileOptions{SortChunk: 10, TempDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "dctrace-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

func TestFileSourceEmptyAndMissing(t *testing.T) {
	path := writeTraceFile(t, nil)
	src, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("empty trace: want io.EOF, got %v", err)
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.jsonl"), FileOptions{}); err == nil {
		t.Fatal("missing file should error")
	}
}
