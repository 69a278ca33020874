package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SegmentStore is a file-backed stable-storage point for the decision log:
// an append-only directory of fixed-size-bounded segments, each fsynced on
// write. It implements storage.Disk, so it plugs directly into the writer
// pool, and adds what a real deployment needs beyond a flat file: scanning
// all segments in order for recovery and pruning segments that a
// checkpoint has made redundant.
type SegmentStore struct {
	dir     string
	maxSize int64

	mu      sync.Mutex
	active  *os.File
	actSize int64
	actIdx  int
	closed  bool
}

// segPrefix and segSuffix name segment files: seg-000042.wal.
const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

// OpenSegmentStore creates (or reopens) a segment directory. maxSegment
// bounds each segment's size in bytes (minimum 4 KiB; writes larger than
// the bound get a segment of their own).
func OpenSegmentStore(dir string, maxSegment int64) (*SegmentStore, error) {
	if maxSegment < 4096 {
		maxSegment = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create wal dir: %w", err)
	}
	s := &SegmentStore{dir: dir, maxSize: maxSegment}
	idxs, err := s.segmentIndexes()
	if err != nil {
		return nil, err
	}
	next := 1
	if len(idxs) > 0 {
		next = idxs[len(idxs)-1] + 1
	}
	if err := s.openSegment(next); err != nil {
		return nil, err
	}
	return s, nil
}

// segmentIndexes lists existing segment numbers in ascending order.
func (s *SegmentStore) segmentIndexes() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("read wal dir: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%06d"+segSuffix, &idx); err != nil {
			continue
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

func (s *SegmentStore) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, idx, segSuffix))
}

// openSegment starts a fresh active segment. Caller holds no lock or the
// store lock as appropriate (constructor and rotate paths).
func (s *SegmentStore) openSegment(idx int) error {
	f, err := os.OpenFile(s.segPath(idx), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open segment %d: %w", idx, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("stat segment %d: %w", idx, err)
	}
	s.active = f
	s.actIdx = idx
	s.actSize = st.Size()
	return nil
}

// Write appends p to the active segment (rotating first if it is full)
// and fsyncs. Implements storage.Disk.
func (s *SegmentStore) Write(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.actSize > 0 && s.actSize+int64(len(p)) > s.maxSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.active.Write(p); err != nil {
		return fmt.Errorf("append segment %d: %w", s.actIdx, err)
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("sync segment %d: %w", s.actIdx, err)
	}
	s.actSize += int64(len(p))
	return nil
}

func (s *SegmentStore) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("close segment %d: %w", s.actIdx, err)
	}
	return s.openSegment(s.actIdx + 1)
}

// Close syncs and closes the active segment. Implements storage.Disk.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.active.Sync(); err != nil {
		return err
	}
	return s.active.Close()
}

// Scan reads every segment in order and decodes all records — the
// recovery read path over real files.
func (s *SegmentStore) Scan() ([]Record, error) {
	s.mu.Lock()
	// Flush the active segment so the scan sees everything.
	if !s.closed {
		if err := s.active.Sync(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mu.Unlock()
	idxs, err := s.segmentIndexes()
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, idx := range idxs {
		data, err := os.ReadFile(s.segPath(idx))
		if err != nil {
			return nil, fmt.Errorf("read segment %d: %w", idx, err)
		}
		recs, err := Scan(data)
		if err != nil {
			// Return everything intact so far: a crash can tear the last
			// append, and recovery may choose to treat the prefix as the log.
			return append(out, recs...), fmt.Errorf("segment %d: %w", idx, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// Prune deletes whole segments whose records all have LSN <= upTo (a
// covering checkpoint makes them redundant). The active segment is never
// deleted. Returns the number of segments removed.
func (s *SegmentStore) Prune(upTo LSN) (int, error) {
	idxs, err := s.segmentIndexes()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	activeIdx := s.actIdx
	s.mu.Unlock()
	removed := 0
	for _, idx := range idxs {
		if idx == activeIdx {
			continue
		}
		data, err := os.ReadFile(s.segPath(idx))
		if err != nil {
			return removed, fmt.Errorf("read segment %d: %w", idx, err)
		}
		recs, err := Scan(data)
		if err != nil {
			return removed, fmt.Errorf("segment %d: %w", idx, err)
		}
		prunable := true
		for _, r := range recs {
			if r.LSN > upTo {
				prunable = false
				break
			}
		}
		if !prunable {
			continue
		}
		if err := os.Remove(s.segPath(idx)); err != nil {
			return removed, fmt.Errorf("remove segment %d: %w", idx, err)
		}
		removed++
	}
	return removed, nil
}
