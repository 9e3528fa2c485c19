package fabric

import (
	"fmt"
	"net"
	"os"
	"os/exec"
)

// workerFD is the descriptor a worker inherits its end of the socketpair
// on: the first of exec.Cmd.ExtraFiles.
const workerFD = 3

// StartWorker starts cmd as a fabric worker process: it creates a
// socketpair, hands the child one end as fd 3 (see InheritedConn) and
// returns the coordinator's end. Both ends are close-on-exec, so no
// other child inherits them: a worker's death closes the last copy of
// its end and shows as EOF on the returned connection, and closing the
// returned connection shows as EOF in the worker.
func StartWorker(cmd *exec.Cmd) (net.Conn, error) {
	fds, err := socketpair()
	if err != nil {
		return nil, fmt.Errorf("fabric: socketpair: %w", err)
	}
	parent := os.NewFile(uintptr(fds[0]), "fabric-coordinator")
	child := os.NewFile(uintptr(fds[1]), "fabric-worker")
	defer child.Close() // the started process holds its own copy
	conn, err := net.FileConn(parent)
	parent.Close() // conn holds a duplicate
	if err != nil {
		return nil, fmt.Errorf("fabric: socketpair: %w", err)
	}
	cmd.ExtraFiles = []*os.File{child}
	if err := cmd.Start(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fabric: start worker: %w", err)
	}
	return conn, nil
}

// InheritedConn returns a worker process's end of the socketpair
// StartWorker created for it.
func InheritedConn() (net.Conn, error) {
	f := os.NewFile(workerFD, "fabric-worker")
	defer f.Close() // conn holds a duplicate
	conn, err := net.FileConn(f)
	if err != nil {
		return nil, fmt.Errorf("fabric: no coordinator socket on fd %d: %w", workerFD, err)
	}
	return conn, nil
}
