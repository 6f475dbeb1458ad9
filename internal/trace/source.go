package trace

import (
	"compress/gzip"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Source is a stream of flow records in canonical order: nondecreasing
// (Start, ID), the order WindowView.Append enforces (FlowIDs are
// unique, so the order is strict). Next returns io.EOF after the last
// record. Analysis consumes a Source exactly once, front to back, which
// is what lets the pipeline run in O(window) memory instead of
// O(trace).
type Source interface {
	Next() (FlowRecord, error)
}

// recordLess orders records by (Start, ID) — the canonical trace order.
func recordLess(a, b *FlowRecord) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

// SliceSource streams an in-memory record slice in canonical order.
// It is the adapter between the existing Collector/RunResult world and
// the streaming pipeline: NewSliceSource sorts a copy by recordLess, as
// FileSource sorts its chunks, so a slice-backed analysis and a
// file-backed one see the identical record sequence.
type SliceSource struct {
	recs []FlowRecord
	i    int
}

// NewSliceSource copies and canonically sorts records.
func NewSliceSource(records []FlowRecord) *SliceSource {
	recs := make([]FlowRecord, len(records))
	copy(recs, records)
	sort.Slice(recs, func(a, b int) bool { return recordLess(&recs[a], &recs[b]) })
	return &SliceSource{recs: recs}
}

// Next returns the next record or io.EOF.
func (s *SliceSource) Next() (FlowRecord, error) {
	if s.i >= len(s.recs) {
		return FlowRecord{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// FileOptions tunes FileSource's external sort.
type FileOptions struct {
	// SortChunk is the number of records sorted in memory per spill
	// chunk; <= 0 selects the default (1<<18 records of 96 bytes,
	// 24 MiB).
	SortChunk int
	// TempDir receives spill files; empty uses the OS default.
	TempDir string
}

const (
	defaultSortChunk = 1 << 18
	// mergeFanIn bounds open file descriptors during the k-way merge;
	// larger inputs merge in multiple passes.
	mergeFanIn = 64
)

// FileSource streams a JSONL trace file (TraceWriter output, .gz
// accepted) in canonical order without ever materializing the whole
// trace: records are read in SortChunk-sized chunks, each chunk is
// sorted and spilled to a temporary file, and the spill files are
// k-way merged (multi-pass above mergeFanIn inputs). A trace that fits
// in one chunk never touches disk. Memory is O(SortChunk) during
// loading and O(fan-in) during streaming. Spills use the binary codec
// (binary.go) — spill/merge is internal I/O, invisible to callers, and
// the fixed-width records are half the size of JSONL lines and faster
// to write and read — while JSONL stays the interchange format of the
// trace file itself.
//
// Collector output is nearly sorted already (completion order), so
// spill chunks overlap only slightly and the merge heap stays shallow.
type FileSource struct {
	opts   FileOptions
	spills []string // temp files still on disk (removed on Close)

	// in-memory fast path (single chunk)
	mem *SliceSource

	// merge path
	files  []*os.File
	rds    []*BinaryReader
	h      srcHeap
	primed bool
	closed bool
}

// OpenFile opens path as a canonical-order record source. The caller
// must Close it to release spill files and descriptors.
func OpenFile(path string, opts FileOptions) (*FileSource, error) {
	if opts.SortChunk <= 0 {
		opts.SortChunk = defaultSortChunk
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open source: %w", err)
	}
	defer f.Close()
	var in io.Reader = f
	// The first chunk's capacity. Plain input holds at most
	// size/minJSONLLine records of the form Writer writes, so its chunk
	// is allocated once. Compressed input, or a file whose size Stat
	// cannot tell (the reads below then report the fault), starts small
	// and grows.
	capHint := 4096
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(in)
		if err != nil {
			return nil, fmt.Errorf("trace: open gzip source: %w", err)
		}
		defer gz.Close()
		in = gz
	} else if fi, err := f.Stat(); err == nil {
		capHint = int(fi.Size() / minJSONLLine)
	}
	s := &FileSource{opts: opts}
	if err := s.load(NewReader(in), min(capHint, opts.SortChunk)); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// load reads the input into sorted spill chunks (or the in-memory fast
// path) and reduces the spill set below the merge fan-in. The chunk
// starts at capacity capHint and grows by append past it.
func (s *FileSource) load(rd *Reader, capHint int) error {
	chunk := make([]FlowRecord, 0, capHint)
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		chunk = append(chunk, rec)
		if len(chunk) >= s.opts.SortChunk {
			if err := s.spill(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	sort.Slice(chunk, func(a, b int) bool { return recordLess(&chunk[a], &chunk[b]) })
	if len(s.spills) == 0 {
		// Whole trace fit in one chunk: stream from memory, no disk.
		s.mem = &SliceSource{recs: chunk}
		return nil
	}
	if len(chunk) > 0 {
		if err := s.spillSorted(chunk); err != nil {
			return err
		}
	}
	// Multi-pass merge until one streaming pass suffices.
	for len(s.spills) > mergeFanIn {
		group := s.spills[:mergeFanIn]
		merged, err := s.mergeToFile(group)
		if err != nil {
			return err
		}
		for _, p := range group {
			os.Remove(p)
		}
		s.spills = append([]string{merged}, s.spills[mergeFanIn:]...)
	}
	return nil
}

// spill sorts a chunk and writes it to a temp file.
func (s *FileSource) spill(chunk []FlowRecord) error {
	sort.Slice(chunk, func(a, b int) bool { return recordLess(&chunk[a], &chunk[b]) })
	return s.spillSorted(chunk)
}

func (s *FileSource) spillSorted(chunk []FlowRecord) error {
	f, err := os.CreateTemp(s.opts.TempDir, "dctrace-spill-*.bin")
	if err != nil {
		return fmt.Errorf("trace: spill: %w", err)
	}
	s.spills = append(s.spills, f.Name())
	w, err := NewBinaryWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := range chunk {
		if err := w.Write(&chunk[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeToFile k-way merges already-sorted spill files into a new spill.
func (s *FileSource) mergeToFile(paths []string) (string, error) {
	files, rds, h, err := openMerge(paths)
	if err != nil {
		return "", err
	}
	defer closeAll(files)
	out, err := os.CreateTemp(s.opts.TempDir, "dctrace-merge-*.bin")
	if err != nil {
		return "", fmt.Errorf("trace: merge spill: %w", err)
	}
	w, err := NewBinaryWriter(out)
	if err != nil {
		out.Close()
		os.Remove(out.Name())
		return "", err
	}
	for h.Len() > 0 {
		rec, err := popMerge(&h, rds)
		if err != nil {
			out.Close()
			os.Remove(out.Name())
			return "", err
		}
		if err := w.Write(&rec); err != nil {
			out.Close()
			os.Remove(out.Name())
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		os.Remove(out.Name())
		return "", err
	}
	if err := out.Close(); err != nil {
		os.Remove(out.Name())
		return "", err
	}
	return out.Name(), nil
}

// prime opens the final spill set for streaming.
func (s *FileSource) prime() error {
	s.primed = true
	files, rds, h, err := openMerge(s.spills)
	if err != nil {
		return err
	}
	s.files, s.rds, s.h = files, rds, h
	return nil
}

// Next returns the next record in canonical order, or io.EOF.
func (s *FileSource) Next() (FlowRecord, error) {
	if s.closed {
		return FlowRecord{}, errors.New("trace: source closed")
	}
	if s.mem != nil {
		return s.mem.Next()
	}
	if !s.primed {
		if err := s.prime(); err != nil {
			return FlowRecord{}, err
		}
	}
	if s.h.Len() == 0 {
		return FlowRecord{}, io.EOF
	}
	return popMerge(&s.h, s.rds)
}

// Close removes spill files and closes descriptors. Safe to call more
// than once.
func (s *FileSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	closeAll(s.files)
	s.files = nil
	var first error
	for _, p := range s.spills {
		if err := os.Remove(p); err != nil && first == nil {
			first = err
		}
	}
	s.spills = nil
	return first
}

// srcItem is one merge-heap entry: the head record of input src.
type srcItem struct {
	rec FlowRecord
	src int
}

// srcHeap orders merge inputs by their head record's canonical order,
// ties broken by input index for determinism.
type srcHeap []srcItem

func (h srcHeap) Len() int { return len(h) }
func (h srcHeap) Less(a, b int) bool {
	if h[a].rec.Start != h[b].rec.Start || h[a].rec.ID != h[b].rec.ID {
		return recordLess(&h[a].rec, &h[b].rec)
	}
	return h[a].src < h[b].src
}
func (h srcHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *srcHeap) Push(x any)   { *h = append(*h, x.(srcItem)) }
func (h *srcHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// openMerge opens each path and seeds the merge heap with its head.
func openMerge(paths []string) ([]*os.File, []*BinaryReader, srcHeap, error) {
	files := make([]*os.File, 0, len(paths))
	rds := make([]*BinaryReader, 0, len(paths))
	var h srcHeap
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			closeAll(files)
			return nil, nil, nil, fmt.Errorf("trace: open spill: %w", err)
		}
		files = append(files, f)
		rd, err := NewBinaryReader(f)
		if err != nil {
			closeAll(files)
			return nil, nil, nil, err
		}
		rds = append(rds, rd)
		rec, err := rd.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			closeAll(files)
			return nil, nil, nil, err
		}
		h = append(h, srcItem{rec: rec, src: i})
	}
	heap.Init(&h)
	return files, rds, h, nil
}

// popMerge pops the smallest head and refills from its input.
func popMerge(h *srcHeap, rds []*BinaryReader) (FlowRecord, error) {
	top := (*h)[0]
	next, err := rds[top.src].Read()
	switch {
	case err == io.EOF:
		heap.Pop(h)
	case err != nil:
		return FlowRecord{}, err
	default:
		(*h)[0] = srcItem{rec: next, src: top.src}
		heap.Fix(h, 0)
	}
	return top.rec, nil
}

func closeAll(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}
