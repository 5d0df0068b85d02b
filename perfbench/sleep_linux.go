package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// The Go runtime rounds timer sleeps shorter than a millisecond up to
// about a millisecond when its threads are idle, which would add up to
// 1 ms of generator lateness to every open-loop latency. A pacer instead
// arms a timerfd and reads it through the runtime's network poller: the
// goroutine parks without holding a processor and wakes on the timer's
// epoll event, within microseconds.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep waits d (at least one nanosecond).
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		d = 1
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // itimerspec{interval, value}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { _ = p.f.Close() }
