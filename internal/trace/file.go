package trace

// File-level conveniences over the .cvt Reader/Writer: FileWriter owns
// the atomic write protocol (buffered temp file + rename on Commit),
// WriteFile drains a Source through it, and OpenFile wraps an os.File
// in a Reader that still streams block by block — opening a
// multi-gigabyte trace costs one block of memory, not the file size.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clustervp/internal/isa"
)

// FileWriter streams records into a .cvt file atomically: everything
// goes through a buffered Writer into a temp file in the destination
// directory, and only Commit renames it into place — a crashed or
// failed run never leaves a half-written trace behind.
type FileWriter struct {
	*Writer
	tmp  *os.File
	bw   *bufio.Writer
	path string
	done bool
}

// CreateFile opens a FileWriter for path; the container header goes
// out with the first record. Call Write for each record, then exactly
// one of Commit (publish) or Abort (discard); Abort after Commit is a
// no-op, so `defer fw.Abort()` is the idiomatic cleanup.
func CreateFile(path, name string, code []isa.Inst) (*FileWriter, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cvt-*")
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(tmp, 1<<16)
	w, err := NewWriter(bw, name, code)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return &FileWriter{Writer: w, tmp: tmp, bw: bw, path: path}, nil
}

// Commit finalizes the container (end marker, flush) and renames the
// temp file into place.
func (fw *FileWriter) Commit() error {
	if fw.done {
		return errors.New("trace: FileWriter already finished")
	}
	fw.done = true
	err := fw.Writer.Close()
	if err == nil {
		err = fw.bw.Flush()
	}
	if cerr := fw.tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(fw.tmp.Name())
		return err
	}
	if err := os.Rename(fw.tmp.Name(), fw.path); err != nil {
		os.Remove(fw.tmp.Name())
		return err
	}
	return nil
}

// Abort discards the temp file without publishing; no-op after Commit.
func (fw *FileWriter) Abort() {
	if fw.done {
		return
	}
	fw.done = true
	fw.tmp.Close()
	os.Remove(fw.tmp.Name())
}

// WriteFile streams src into a .cvt file at path, written atomically.
// It returns the number of records written.
func WriteFile(path, name string, code []isa.Inst, src Source) (uint64, error) {
	fw, err := CreateFile(path, name, code)
	if err != nil {
		return 0, err
	}
	defer fw.Abort()
	var d DynInst
	for src.Next(&d) {
		if err := fw.Write(&d); err != nil {
			return fw.Count(), err
		}
	}
	if err := src.Err(); err != nil {
		return fw.Count(), fmt.Errorf("trace: generating %s: %w", path, err)
	}
	n := fw.Count()
	return n, fw.Commit()
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
