// Package atomicio provides crash-safe file installation: a file either
// appears complete or not at all, never torn. It is the write path under
// the campaign and daemon checkpoints (streamed through Write) and the pcap
// capture sink (WriteFile), all of which promise that a kill at any instant
// leaves either the previous file or a fully-written successor on disk.
package atomicio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// bufSize is the write buffer between a streaming encoder and the temp
// file: large enough that a checkpoint reaches the kernel in a few hundred
// writes, small enough that no caller ever holds the whole file in memory.
const bufSize = 256 << 10

// WriteFile installs data at path with the Write contract.
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// Write streams a file to path through fill, which writes the content to a
// buffered writer over a temp file in the same directory. The temp file is
// flushed, fsynced, closed and renamed into place, and the directory is
// fsynced so the rename itself survives a power loss, not just a kill. A
// kill mid-write leaves the previous file intact. The temp file is removed
// on every error path, fill's included, and a successful write sweeps stale
// "<base>.tmp*" siblings left behind by writers killed mid-write — the
// file's writer is assumed to be a single process, which is both the
// checkpoint and the capture contract.
func Write(path string, fill func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: temp file for %s: %w", base, err)
	}
	tmpName := tmp.Name()
	installed := false
	defer func() {
		// One cleanup for every failure path: an error anywhere below
		// must never leave the .tmp file behind.
		if !installed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	bw := bufio.NewWriterSize(tmp, bufSize)
	if err := fill(bw); err != nil {
		return fmt.Errorf("atomicio: writing %s: %w", base, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("atomicio: writing %s: %w", base, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: syncing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: closing %s: %w", base, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		installed = true // already removed; skip the deferred double-remove
		return fmt.Errorf("atomicio: installing %s: %w", base, err)
	}
	installed = true
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("atomicio: syncing directory of %s: %w", base, err)
	}
	// Writers killed between CreateTemp and Rename leak their randomized
	// temp name forever (no later write ever picks the same name). Sweep
	// them now that a complete file is installed.
	if stale, err := filepath.Glob(filepath.Join(dir, base+".tmp*")); err == nil {
		for _, s := range stale {
			os.Remove(s)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
