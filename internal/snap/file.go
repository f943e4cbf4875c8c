package snap

// Crash-safe snapshot files. A checkpoint is only useful if the file
// under the final name is always a complete, internally consistent
// stream: a crash (or SIGKILL) mid-write must never leave a truncated
// snapshot where recovery will look for one, and a snapshot that *is*
// damaged (torn rename on a dying disk, a flipped bit) must fail reads
// with a recognizable error so recovery can fall back to the previous
// checkpoint instead of failing the whole job.
//
// Writes go tmp-file -> write -> fsync(file) -> rename -> fsync(dir):
// the rename is atomic on POSIX filesystems, and the two fsyncs make
// both the contents and the directory entry durable before the new
// name is trusted. Reads surface every stream-level failure as a
// *CorruptError (see Codec.Fail), which callers detect with errors.As.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// CorruptError reports a snapshot stream that cannot be trusted: bad
// magic or version, a section tag out of sync, a length prefix out of
// range, a structural mismatch against the restoring configuration, or
// plain truncation (unexpected EOF). Recovery code treats any
// CorruptError as "this checkpoint is unusable, fall back to the
// previous one" rather than a hard job failure.
type CorruptError struct {
	Err error
}

func (e *CorruptError) Error() string { return "snap: corrupt snapshot: " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *CorruptError) Unwrap() error { return e.Err }

// Corrupt wraps err as a CorruptError, passing nil and already-wrapped
// errors through unchanged so layered restore code can tag failures
// without double-wrapping.
func Corrupt(err error) error {
	if err == nil {
		return nil
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return err
	}
	return &CorruptError{Err: err}
}

// IsCorrupt reports whether err (anywhere in its chain) marks an
// unusable snapshot stream.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// WriteFileAtomic writes one snapshot stream to path durably: emit
// walks an encoding Codec over a temporary file in path's directory,
// which is fsynced, atomically renamed over path, and the directory
// entry fsynced. On any failure the temporary file is removed and path
// is untouched (either absent or still the previous complete snapshot).
// Parent directories are created as needed.
func WriteFileAtomic(path string, emit func(*Codec) error) error {
	return writeAtomic(path, func(f *os.File) error {
		c := NewEncoder(f)
		defer c.Release()
		if err := emit(c); err != nil {
			return err
		}
		return c.Flush()
	})
}

// WriteRawAtomic writes an opaque byte payload (a checkpoint's stream,
// nocserve's results.json) with the same tmp+fsync+rename discipline as
// WriteFileAtomic.
func WriteRawAtomic(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

func writeAtomic(path string, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("snap: write %s: %w", path, err)
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("snap: write %s: %w", path, err)
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snap: write %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename itself already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync()
	return d.Close()
}
