package store

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data, and only the metadata needed to read it
// back: on a region already allocated and synced, no metadata at all.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
