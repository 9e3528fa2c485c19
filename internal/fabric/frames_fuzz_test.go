package fabric

// Wire-format fuzzing: readFrame is the fabric's only parser of bytes
// from another process, and that process may be a crashed, stale or
// foreign binary. For arbitrary bytes it must return an error or a
// valid frame — never panic, never allocate past maxFrame — and any
// frame it accepts must re-encode and re-decode to itself (the stream
// stays framed; no desynchronization).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"rajaperf/internal/campaign"
)

func FuzzFrame(f *testing.F) {
	seed := func(fr *frame) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	framed := func(body string) []byte {
		b := make([]byte, 4+len(body))
		binary.BigEndian.PutUint32(b[:4], uint32(len(body)))
		copy(b[4:], body)
		return b
	}
	spec := campaign.RunSpec{Machine: "SPR-DDR", Variant: "RAJA_Seq", Size: 10_000, Schedule: "default"}
	f.Add(seed(&frame{Type: frameWelcome, Shard: 2, Proto: protoVersion, Fleet: 4,
		Config: &WorkerConfig{OutDir: "/tmp/x", MaxAttempts: 2, HeartbeatEvery: time.Second}}))
	f.Add(seed(&frame{Type: frameAssign, Spec: &spec, Crash: true}))
	f.Add(seed(&frame{Type: frameResult,
		Result: &wireResult{ID: spec.ID(), Status: campaign.StatusDone, Attempts: 1}}))
	f.Add(seed(&frame{Type: frameHeartbeat}))

	// Torn: the length prefix promises more bytes than arrive.
	f.Add([]byte{0, 0, 0, 10, 'x'})
	// Oversized: a corrupt length must error, not allocate 4 GiB.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	var huge [8]byte
	binary.BigEndian.PutUint32(huge[:4], maxFrame+1)
	f.Add(huge[:])
	// Empty: a zero length is never a frame.
	f.Add([]byte{0, 0, 0, 0})
	// Framed, but not a JSON object.
	f.Add(framed("not json"))
	// Bit-flipped body: with no checksum, decoding must reject it or
	// yield a frame that still round-trips.
	flipped := seed(&frame{Type: frameHeartbeat})
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	// A frame type this protocol version does not speak.
	f.Add(framed(`{"type":"bye"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // torn, oversized, or malformed: rejected, not panicked
		}
		if fr == nil {
			t.Fatal("readFrame returned neither frame nor error")
		}
		// Accepted frames must survive the wire again, unchanged.
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if buf.Len() > maxFrame+4 {
			t.Fatalf("re-encoded frame is %d bytes, past maxFrame", buf.Len())
		}
		fr2, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("frame changed across re-encode:\nfirst  %+v\nsecond %+v", fr, fr2)
		}
	})
}
