package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// syncFS is a pass-through vfs.FS that the point_rw store is opened on.
// Every operation goes to the real filesystem; on the side it counts
// writes and fsyncs, times each fsync, and keeps a model of what a crash
// at any instant would leave on disk:
//
//   - a file's durable content is its content as of its last Sync;
//   - a directory entry (create, rename, remove) is durable once the
//     directory itself is synced with SyncDir;
//   - directories made with MkdirAll are taken as durable.
//
// materialize writes that crash image into another directory, which the
// durability check reopens without closing.
type syncFS struct {
	inner vfs.FS

	mu      sync.Mutex
	files   map[string]*fnode // current namespace
	durable map[string]*fnode // namespace as of each directory's last SyncDir
	spans   *tracer           // non-nil while a traced phase records fsync spans

	fsyncs       atomic.Int64
	fsyncNanos   atomic.Int64
	writeCalls   atomic.Int64
	bytesWritten atomic.Int64
}

// fnode is one file's modelled content.
type fnode struct {
	data []byte // current content
	// synced is the content as of the last Sync. While aliased it shares
	// data's backing array, which is safe as long as nothing below
	// len(synced) is overwritten; writes and truncations below that
	// length copy it first.
	synced  []byte
	aliased bool
}

func newSyncFS() *syncFS {
	return &syncFS{inner: vfs.OS, files: map[string]*fnode{}, durable: map[string]*fnode{}}
}

// fsCounters is a snapshot of the counters.
type fsCounters struct {
	fsyncs, fsyncNanos, writeCalls, bytesWritten int64
}

func (s *syncFS) counters() fsCounters {
	if s == nil {
		return fsCounters{}
	}
	return fsCounters{s.fsyncs.Load(), s.fsyncNanos.Load(), s.writeCalls.Load(), s.bytesWritten.Load()}
}

func (s *syncFS) setTracer(t *tracer) {
	s.mu.Lock()
	s.spans = t
	s.mu.Unlock()
}

// fsynced records one fsync that started at t0.
func (s *syncFS) fsynced(name string, t0 time.Time) {
	t1 := time.Now()
	s.fsyncs.Add(1)
	s.fsyncNanos.Add(int64(t1.Sub(t0)))
	s.mu.Lock()
	t := s.spans
	s.mu.Unlock()
	if t != nil {
		t.add(name, -1, -1, t0, t1)
	}
}

func (s *syncFS) node(name string) *fnode {
	name = filepath.Clean(name)
	n := s.files[name]
	if n == nil {
		n = &fnode{}
		s.files[name] = n
	}
	return n
}

func (s *syncFS) Create(name string) (vfs.File, error) {
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	n := s.node(name)
	n.truncate(0)
	s.mu.Unlock()
	return &syncFile{File: f, fs: s, n: n}, nil
}

func (s *syncFS) Open(name string) (vfs.File, error) { return s.inner.Open(name) }

func (s *syncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := s.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, known := s.files[filepath.Clean(name)]
	if !known {
		// A file this model never saw being written: take its present
		// content as durable.
		data, rerr := os.ReadFile(name)
		if rerr != nil {
			f.Close()
			return nil, rerr
		}
		n = &fnode{data: data, synced: bytes.Clone(data)}
		s.files[filepath.Clean(name)] = n
		s.durable[filepath.Clean(name)] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.truncate(0)
	}
	return &syncFile{File: f, fs: s, n: n, appending: flag&os.O_APPEND != 0}, nil
}

func (s *syncFS) Rename(oldpath, newpath string) error {
	if err := s.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if n, ok := s.files[oldpath]; ok {
		s.files[newpath] = n
		delete(s.files, oldpath)
	}
	return nil
}

func (s *syncFS) Remove(name string) error {
	if err := s.inner.Remove(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.files, filepath.Clean(name))
	s.mu.Unlock()
	return nil
}

func (s *syncFS) MkdirAll(path string, perm fs.FileMode) error { return s.inner.MkdirAll(path, perm) }
func (s *syncFS) ReadDir(name string) ([]os.DirEntry, error)   { return s.inner.ReadDir(name) }
func (s *syncFS) ReadFile(name string) ([]byte, error)         { return s.inner.ReadFile(name) }

func (s *syncFS) SyncDir(dir string) error {
	t0 := time.Now()
	if err := s.inner.SyncDir(dir); err != nil {
		return err
	}
	s.fsynced("vfs.syncdir", t0)
	dir = filepath.Clean(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.durable {
		if filepath.Dir(p) == dir {
			delete(s.durable, p)
		}
	}
	for p, n := range s.files {
		if filepath.Dir(p) == dir {
			s.durable[p] = n
		}
	}
	return nil
}

// materialize writes the crash image of the files under root into dst:
// only durable directory entries, each with its synced bytes.
func (s *syncFS) materialize(root, dst string) error {
	s.mu.Lock()
	type file struct {
		rel  string
		data []byte
	}
	var out []file
	for p, n := range s.durable {
		rel, err := filepath.Rel(root, p)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		out = append(out, file{rel, bytes.Clone(n.synced)})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].rel < out[j].rel })
	for _, f := range out {
		p := filepath.Join(dst, f.rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
	}
	return nil
}

// detach gives synced its own copy before bytes below its length change.
func (n *fnode) detach() {
	if n.aliased {
		n.synced = bytes.Clone(n.synced)
		n.aliased = false
	}
}

func (n *fnode) truncate(size int64) {
	if size < int64(len(n.synced)) {
		n.detach()
	}
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return
	}
	n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
}

func (n *fnode) writeAt(p []byte, off int64) {
	if off < int64(len(n.synced)) {
		n.detach()
	}
	if end := off + int64(len(p)); end > int64(len(n.data)) {
		n.truncate(end)
	}
	copy(n.data[off:], p)
}

// syncFile is a written file handle of a syncFS.
type syncFile struct {
	vfs.File
	fs        *syncFS
	n         *fnode
	appending bool
	pos       int64
}

func (f *syncFile) Write(p []byte) (int, error) {
	k, err := f.File.Write(p)
	f.fs.writeCalls.Add(1)
	f.fs.bytesWritten.Add(int64(k))
	f.fs.mu.Lock()
	off := f.pos
	if f.appending {
		off = int64(len(f.n.data))
	}
	f.n.writeAt(p[:k], off)
	f.pos = off + int64(k)
	f.fs.mu.Unlock()
	return k, err
}

func (f *syncFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.fs.mu.Lock()
		f.pos = pos
		f.fs.mu.Unlock()
	}
	return pos, err
}

func (f *syncFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.n.truncate(size)
	f.fs.mu.Unlock()
	return nil
}

func (f *syncFile) Sync() error {
	// Bytes written before the fsync starts are the ones it makes durable.
	f.fs.mu.Lock()
	size := len(f.n.data)
	f.fs.mu.Unlock()
	t0 := time.Now()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.fsynced("vfs.fsync", t0)
	f.fs.mu.Lock()
	if size > len(f.n.data) {
		size = len(f.n.data)
	}
	f.n.synced = f.n.data[:size:size]
	f.n.aliased = true
	f.fs.mu.Unlock()
	return nil
}

// ReadFrom hides any ReadFrom of the wrapped file, so io.Copy into a
// syncFile goes through Write and the model sees the bytes.
func (f *syncFile) ReadFrom(r io.Reader) (int64, error) {
	return io.Copy(struct{ io.Writer }{f}, r)
}
