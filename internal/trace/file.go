package trace

// File-level conveniences over the .cvt Reader/Writer: WriteFile drains
// a Source into a file published atomically (buffered temp file, then
// rename), and OpenFile wraps an os.File in a Reader that still streams
// block by block — opening a multi-gigabyte trace costs one block of
// memory, not the file size.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clustervp/internal/isa"
)

// WriteFile streams src into a .cvt file at path and returns the number
// of records written. Everything goes through a buffered Writer into a
// temp file in the destination directory, renamed into place only once
// the source drained cleanly and the container is complete, so a
// failed or crashed run never leaves a half-written trace behind.
func WriteFile(path, name string, code []isa.Inst, src Source) (n uint64, err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cvt-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	w, err := NewWriter(bw, name, code)
	if err != nil {
		return 0, err
	}
	var d DynInst
	for src.Next(&d) {
		if err := w.Write(&d); err != nil {
			return w.Count(), err
		}
	}
	if err := src.Err(); err != nil {
		return w.Count(), fmt.Errorf("trace: generating %s: %w", path, err)
	}
	if err := w.Close(); err != nil {
		return w.Count(), err
	}
	if err := bw.Flush(); err != nil {
		return w.Count(), err
	}
	if err := tmp.Close(); err != nil {
		return w.Count(), err
	}
	return w.Count(), os.Rename(tmp.Name(), path)
}

// FileReader is a Reader bound to an opened .cvt file.
type FileReader struct {
	*Reader
	f *os.File
}

// OpenFile opens a .cvt trace for streaming replay.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close closes the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }

var _ io.Closer = (*FileReader)(nil)
