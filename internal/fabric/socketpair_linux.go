package fabric

import "syscall"

// socketpair creates a connected pair of stream sockets, both
// close-on-exec from the start.
func socketpair() ([2]int, error) {
	return syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
}
