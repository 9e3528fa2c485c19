// Package fabric is the distributed sharded execution backend for
// campaigns: a coordinator that shards a plan's RunSpecs across worker
// processes it spawns itself, one socketpair per worker, with
// work-stealing rebalancing, per-shard write-ahead logs, and
// failure-domain isolation — a crashed or kill-9'd worker costs the
// campaign only its own in-flight spec.
//
// The protocol reuses the message discipline of internal/simmpi, the
// suite's MPI stand-in, translated from channels to a byte stream:
//
//   - typed frames — every message is one tagged, self-describing
//     record (welcome, assign, result, heartbeat), exactly as simmpi
//     messages carry (src, tag, payload);
//   - spawn-all — the coordinator starts and welcomes every shard's
//     worker before it accepts any spec, like simmpi's Run spawning all
//     ranks before any communicates;
//   - deterministic ordering — frames on one connection are strictly
//     FIFO (a stream socket plus a single writer lock per side), matching
//     simmpi's per-sender ordering guarantee, and the coordinator's
//     dispatcher visits workers and queues in shard order, so the same
//     event sequence always produces the same assignment sequence.
//
// On the wire each frame is a 4-byte big-endian length prefix and one
// JSON object. JSON keeps the frames debuggable (hexdump a session and
// read it) and reuses the RunSpec/ManifestEntry serializations the
// manifest already pins; the fabric moves a few frames per spec, so
// codec speed is irrelevant next to run time. A socketpair neither drops
// nor flips bytes, but the peer is another process, so readFrame still
// bounds, length-checks and decodes every frame instead of trusting it.
package fabric

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rajaperf/internal/campaign"
	"rajaperf/internal/resilience"
)

// Frame types. The coordinator sends welcome and assign; workers send
// result and heartbeat. Closing the socket ends the session: the worker
// sees EOF, the coordinator sees a dead worker.
const (
	frameWelcome   = "welcome"   // coordinator → worker: shard, protocol version, fleet size, execution config
	frameAssign    = "assign"    // coordinator → worker: run one spec
	frameResult    = "result"    // worker → coordinator: terminal outcome
	frameHeartbeat = "heartbeat" // worker → coordinator: liveness tick, no payload
)

// protoVersion is the wire protocol version carried by welcome; it
// changes whenever the frame layout does. A respawn runs the binary from
// disk again, which may have been rebuilt mid-campaign, so a worker
// refuses a version it does not speak instead of failing obscurely.
const protoVersion = 4

// maxFrame bounds a decoded frame; anything larger is protocol
// corruption, not data.
const maxFrame = 16 << 20

// WorkerConfig is the execution configuration the coordinator hands each
// worker in the welcome frame — the worker-relevant subset of
// campaign.Options, so workers need no command-line mirroring of the
// campaign flags.
type WorkerConfig struct {
	// OutDir is the shared campaign output directory (single-host scope:
	// coordinator and workers see one filesystem).
	OutDir string `json:"out_dir,omitempty"`
	// Retry/watchdog knobs, mirrored from campaign.Options.
	MaxAttempts  int           `json:"max_attempts,omitempty"`
	RunTimeout   time.Duration `json:"run_timeout,omitempty"`
	StallTimeout time.Duration `json:"stall_timeout,omitempty"`
	// Faults is a resilience.ParseFaults spec; each worker owns an
	// independent injector seeded by it (documented in DESIGN.md — fault
	// counts are per worker process, not campaign-global).
	Faults string `json:"faults,omitempty"`
	// HeartbeatEvery is the worker's heartbeat frame period.
	HeartbeatEvery time.Duration `json:"heartbeat_every,omitempty"`
}

// wireResult is a SpecResult flattened for the wire: the error collapses
// to its message plus a transience marker, and the retained profile
// never travels (workers stream profiles to the shared OutDir instead).
type wireResult struct {
	ID            string          `json:"id"`
	Status        campaign.Status `json:"status"`
	Err           string          `json:"error,omitempty"`
	Transient     bool            `json:"transient,omitempty"`
	Path          string          `json:"path,omitempty"`
	Elapsed       time.Duration   `json:"elapsed,omitempty"`
	Attempts      int             `json:"attempts,omitempty"`
	KernelsFailed int             `json:"kernels_failed,omitempty"`
}

// toWire flattens a SpecResult for the result frame.
func toWire(sr campaign.SpecResult) *wireResult {
	w := &wireResult{
		ID:            sr.Spec.ID(),
		Status:        sr.Status,
		Path:          sr.Path,
		Elapsed:       sr.Elapsed,
		Attempts:      sr.Attempts,
		KernelsFailed: sr.KernelsFailed,
	}
	if sr.Err != nil {
		w.Err = sr.Err.Error()
		w.Transient = resilience.IsTransient(sr.Err)
	}
	return w
}

// toSpecResult reconstructs the coordinator-side SpecResult. The error
// chain cannot cross a process boundary, so transience — the one
// property the orchestrator's breaker inspects — is re-marked
// explicitly.
func (w *wireResult) toSpecResult(spec campaign.RunSpec) campaign.SpecResult {
	sr := campaign.SpecResult{
		Spec:          spec,
		Status:        w.Status,
		Path:          w.Path,
		Elapsed:       w.Elapsed,
		Attempts:      w.Attempts,
		KernelsFailed: w.KernelsFailed,
	}
	if w.Err != "" {
		err := fmt.Errorf("fabric: worker: %s", w.Err)
		if w.Transient {
			err = resilience.MarkTransient(err)
		}
		sr.Err = err
	}
	return sr
}

// frame is one protocol message. Exactly the fields of its Type are set;
// the rest stay at their zero values and marshal away.
type frame struct {
	Type string `json:"type"`

	// welcome: the worker's shard index, the coordinator's protocol
	// version, the fleet size (the coordinator's worker count, which
	// sizes each run's pool to the worker's share of the host), and the
	// execution configuration.
	Shard  int           `json:"shard,omitempty"`
	Proto  int           `json:"proto,omitempty"`
	Fleet  int           `json:"fleet,omitempty"`
	Config *WorkerConfig `json:"config,omitempty"`

	// assign. Crash carries the worker.crash fault decision: the worker
	// this assignment lands on crashes on receipt (fault drills only).
	Spec  *campaign.RunSpec `json:"spec,omitempty"`
	Crash bool              `json:"crash,omitempty"`

	// result
	Result *wireResult `json:"result,omitempty"`
}

// writeFrame encodes one frame as a single Write: length prefix, then
// the JSON body. Callers serialize writes per connection (each side
// holds a writer lock), preserving FIFO frame order.
func writeFrame(w io.Writer, f *frame) error {
	body, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fabric: encode %s frame: %w", f.Type, err)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(body)))
	copy(buf[4:], body)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	return nil
}

// readFrame decodes the next length-prefixed frame from r. Every failure
// mode returns an error and never panics: a hostile or corrupt stream
// costs at most one maxFrame allocation and the connection, not the
// process.
func readFrame(r *bufio.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through: a closed peer is not corruption
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("fabric: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("fabric: truncated frame: %w", err)
	}
	var f frame
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("fabric: decode frame: %w", err)
	}
	return &f, nil
}
