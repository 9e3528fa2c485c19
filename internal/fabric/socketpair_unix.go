//go:build unix && !linux

package fabric

import "syscall"

// socketpair creates a connected pair of stream sockets, both
// close-on-exec. Without SOCK_CLOEXEC, holding ForkLock keeps a
// concurrent fork from inheriting them before the flag is set.
func socketpair() ([2]int, error) {
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return fds, err
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	return fds, nil
}
