package main

import (
	"strings"
	"time"

	"pcplsm/internal/compress"
	"pcplsm/internal/storage"
)

// tracedFS interposes on the storage.FS the store is opened with. Every
// call is counted by file kind; in a traced run it is also timed and
// recorded as a span.
type tracedFS struct {
	inner storage.FS
	tr    *tracer
}

func kindOf(name string) fileKind {
	switch {
	case strings.HasSuffix(name, ".log"):
		return kindLog
	case strings.HasSuffix(name, ".sst"):
		return kindTable
	case strings.HasPrefix(name, "MANIFEST"):
		return kindManifest
	default:
		return kindOther
	}
}

func (f *tracedFS) Create(name string) (storage.File, error) {
	k, t0 := kindOf(name), f.tr.start()
	file, err := f.inner.Create(name)
	f.tr.fsCall(k, fsCreate, 0, t0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, kind: k, tr: f.tr}, nil
}

func (f *tracedFS) Open(name string) (storage.File, error) {
	k, t0 := kindOf(name), f.tr.start()
	file, err := f.inner.Open(name)
	f.tr.fsCall(k, fsOpen, 0, t0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, kind: k, tr: f.tr}, nil
}

func (f *tracedFS) Remove(name string) error {
	t0 := f.tr.start()
	err := f.inner.Remove(name)
	f.tr.fsCall(kindOf(name), fsRemove, 0, t0)
	return err
}

func (f *tracedFS) Rename(oldname, newname string) error {
	t0 := f.tr.start()
	err := f.inner.Rename(oldname, newname)
	f.tr.fsCall(kindOf(newname), fsRename, 0, t0)
	return err
}

func (f *tracedFS) List() ([]string, error) {
	t0 := f.tr.start()
	names, err := f.inner.List()
	f.tr.fsCall(kindOther, fsList, 0, t0)
	return names, err
}

func (f *tracedFS) Size(name string) (int64, error) {
	t0 := f.tr.start()
	n, err := f.inner.Size(name)
	f.tr.fsCall(kindOf(name), fsStat, 0, t0)
	return n, err
}

type tracedFile struct {
	inner storage.File
	kind  fileKind
	tr    *tracer
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.tr.start()
	n, err := f.inner.ReadAt(p, off)
	f.tr.fsCall(f.kind, fsRead, n, t0)
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := f.tr.start()
	n, err := f.inner.Write(p)
	f.tr.fsCall(f.kind, fsWrite, n, t0)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.tr.start()
	err := f.inner.Sync()
	f.tr.fsCall(f.kind, fsSync, 0, t0)
	return err
}

func (f *tracedFile) Close() error {
	t0 := f.tr.start()
	err := f.inner.Close()
	f.tr.fsCall(f.kind, fsClose, 0, t0)
	return err
}

func (f *tracedFile) Size() (int64, error) {
	t0 := f.tr.start()
	n, err := f.inner.Size()
	f.tr.fsCall(f.kind, fsStat, 0, t0)
	return n, err
}

// tracedCodec interposes on the block codec passed through
// lsm.Options.Codec. Only Compress is on the engine's write path; reads
// decompress through the codec registry by the kind stored in each block.
type tracedCodec struct {
	inner compress.Codec
	tr    *tracer
}

func (c *tracedCodec) Kind() compress.Kind { return c.inner.Kind() }

func (c *tracedCodec) Compress(dst, src []byte) []byte {
	t0 := time.Now()
	out := c.inner.Compress(dst, src)
	d := time.Since(t0)
	c.tr.codec.add(len(src), d)
	c.tr.codecOut.Add(int64(len(out) - len(dst)))
	c.tr.child(layerCodec, "compress", "", t0, d, len(src))
	return out
}

func (c *tracedCodec) Decompress(dst, src []byte) ([]byte, error) {
	return c.inner.Decompress(dst, src)
}
