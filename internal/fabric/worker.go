package fabric

// The worker: one process owning one shard of a distributed campaign.
// It reads the welcome frame on the socket its coordinator handed it —
// learning its shard and the fleet size and verifying the protocol
// version — and then runs each assigned spec behind the same
// campaign.LocalExecutor the in-process backend uses — retry loop,
// per-attempt pool, run watchdogs, profile write — so a spec's execution
// semantics do not depend on which backend ran it.
//
// Durability ordering per spec: the profile reaches the shared OutDir
// (inside LocalExecutor.Submit), then the outcome is appended and
// fsynced to this shard's WAL, and only then does the result frame go
// back to the coordinator. A worker killed between the WAL append and
// the frame has already made the outcome durable: recovery merges the
// shard WAL and the spec is not re-run. A respawned worker reopens the
// same WAL in append mode, so supervision inherits everything its
// predecessor completed.
//
// An assign carrying the Crash flag is the worker.crash fault landing:
// the process exits immediately, exactly as a real crash would.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"rajaperf/internal/campaign"
	"rajaperf/internal/resilience"
)

// crashExit is the worker.crash exit code — distinguishable in the
// coordinator's reaper from an ordinary worker error.
const crashExit = 3

// RunWorker runs one worker process's session over conn: read the
// welcome, then execute assigned specs until the coordinator closes its
// end (clean return) or the connection breaks (error).
func RunWorker(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	f, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("fabric: waiting for welcome: %w", err)
	}
	if f.Type != frameWelcome || f.Config == nil {
		return fmt.Errorf("fabric: expected welcome, got %q", f.Type)
	}
	if f.Proto != protoVersion {
		return fmt.Errorf("fabric: coordinator speaks protocol v%d, this worker v%d", f.Proto, protoVersion)
	}
	shard, cfg := f.Shard, *f.Config

	inj, err := resilience.ParseFaults(cfg.Faults)
	if err != nil {
		return fmt.Errorf("fabric: worker faults: %w", err)
	}
	// The fleet shares the host as a local campaign's concurrent runs do,
	// so each run's pool gets max(1, NumCPU/fleet) lanes, not all cores.
	// The read loop below keeps one spec in flight per worker.
	exec := campaign.NewLocalExecutor(campaign.Options{
		OutDir:       cfg.OutDir,
		Workers:      f.Fleet,
		Retry:        resilience.Policy{MaxAttempts: cfg.MaxAttempts},
		RunTimeout:   cfg.RunTimeout,
		StallTimeout: cfg.StallTimeout,
		Faults:       inj,
	})
	var wal *campaign.ShardJournal
	if cfg.OutDir != "" {
		if wal, err = campaign.OpenShardJournal(cfg.OutDir, shard); err != nil {
			return err
		}
		defer wal.Close()
	}

	var wmu sync.Mutex
	send := func(f *frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, f)
	}

	// Heartbeats assert "this process is alive and its socket works".
	// Per-run liveness is the local executor's watchdog's job, so a long
	// legitimate kernel does not get its worker declared dead.
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
	defer func() {
		close(hbStop)
		<-hbDone
	}()
	go func() {
		defer close(hbDone)
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if send(&frame{Type: frameHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	// Specs run here, one at a time: the coordinator sends the next assign
	// only after this worker's result, so there is nothing else to read
	// while a spec runs. EOF therefore always finds the previous spec
	// finished and journaled.
	for {
		f, err := readFrame(br)
		if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return nil // the coordinator closed its end: the session is over
		}
		if err != nil {
			return fmt.Errorf("fabric: worker shard%d: %w", shard, err)
		}
		if f.Type != frameAssign || f.Spec == nil {
			return fmt.Errorf("fabric: worker shard%d: unexpected %q frame", shard, f.Type)
		}
		if f.Crash {
			// The worker.crash fault landing: die exactly as a real crash
			// would — no WAL entry, no result. The coordinator redispatches
			// the spec and respawns the shard.
			os.Exit(crashExit)
		}
		sr := exec.Submit(ctx, *f.Spec)
		if sr.Status != campaign.StatusCanceled {
			if err := wal.Append(f.Spec.ID(), sr.Entry()); err != nil {
				return fmt.Errorf("fabric: worker shard%d: %w", shard, err)
			}
		}
		// A failed send needs no handling: a coordinator that is gone shows
		// as EOF on the next read.
		_ = send(&frame{Type: frameResult, Result: toWire(sr)})
	}
}
