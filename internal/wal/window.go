package wal

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// windowLen is the byte length of the shared file mapping a SyncNever log's
// writer copies frames into. It is a multiple of every page size, and
// windows are aligned to it, so the window holding a file offset is the one
// at offset &^ (windowLen-1).
const windowLen = 1 << 20

// zeroWindow is what a reservation writes: the part of a window the file
// does not reach yet, as zeros.
var zeroWindow [windowLen]byte

var pageSize = int64(os.Getpagesize())

// copyOut copies frames into the file at offset off through the mapped
// window, mapping the next window each time off reaches the end of the
// current one, so a frame longer than a window spans several. The copy is a
// store into the page cache the file reads from: no system call unless a
// window has to be mapped. Caller is the writer.
func (l *Log) copyOut(frames []byte, off int64) error {
	for len(frames) > 0 {
		if l.win == nil || off >= l.winOff+windowLen {
			if err := l.mapWindow(off &^ (windowLen - 1)); err != nil {
				return err
			}
		}
		n := copy(l.win[off-l.winOff:], frames)
		frames, off = frames[n:], off+int64(n)
	}
	return nil
}

// mapWindow retires the mapped window, if any, and maps the one starting at
// base. The file is first extended to the window's end by one write of
// zeros: a full disk fails that write, where a store into a mapped page the
// file has no block for would raise SIGBUS. The zeros read as the end of the
// log (a zero frame length is below minBodyLen), and Close and Open cut them
// off again.
func (l *Log) mapWindow(base int64) error {
	if err := l.unmap(); err != nil {
		return err
	}
	if end := base + windowLen; l.fileLen < end {
		if _, err := l.f.WriteAt(zeroWindow[:end-l.fileLen], l.fileLen); err != nil {
			return fmt.Errorf("wal: reserve window: %w", err)
		}
		l.fileLen = end
	}
	win, err := syscall.Mmap(int(l.f.Fd()), base, windowLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("wal: map window: %w", err)
	}
	l.win, l.winOff = win, base
	return nil
}

// unmap retires the mapped window. The write-back of its bytes no fsync has
// covered yet is started first (msync MS_ASYNC), so the next fsync of the
// file finds them on their way to the disk.
func (l *Log) unmap() error {
	if l.win == nil {
		return nil
	}
	err := l.msync(l.synced, l.winOff+windowLen, syscall.MS_ASYNC)
	if uerr := syscall.Munmap(l.win); err == nil {
		err = uerr
	}
	l.win = nil
	if err != nil {
		return fmt.Errorf("wal: unmap window: %w", err)
	}
	return nil
}

// msync flushes the mapped window's pages that overlap the file range
// [from, to) with the given flags (MS_SYNC: return once they are written).
func (l *Log) msync(from, to int64, flags int) error {
	from = max(from, l.winOff) &^ (pageSize - 1)
	to = min(to, l.winOff+windowLen)
	if l.win == nil || from >= to {
		return nil
	}
	b := l.win[from-l.winOff : to-l.winOff]
	if _, _, e := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(flags)); e != 0 {
		return e
	}
	return nil
}
