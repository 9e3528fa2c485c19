//go:build !unix

package fabric

import "errors"

// socketpair is unavailable: fabric workers need Unix stream sockets.
func socketpair() ([2]int, error) {
	return [2]int{}, errors.New("fabric workers need a Unix socketpair")
}
