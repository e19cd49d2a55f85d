//go:build !linux

package store

import "os"

// fdatasync falls back to a full fsync where the platform offers no
// data-only flush.
func fdatasync(f *os.File) error { return f.Sync() }
