package rsm

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"joshua/internal/codec"
)

// goldenSvc answers a command with its ReqID repeated payload[1]
// times, so replies run from suppressed (0 times) to several hundred
// bytes, and counts what it applied.
type goldenSvc struct {
	applied int
}

func (s *goldenSvc) Apply(cmd Command, reply *codec.Encoder) {
	s.applied++
	for k := 0; k < int(cmd.Payload[1]); k++ {
		reply.PutRaw(cmd.ReqID)
	}
}
func (s *goldenSvc) Snapshot() []byte {
	return fmt.Appendf(nil, "applied=%d", s.applied)
}
func (s *goldenSvc) Fork() func() []byte {
	b := s.Snapshot()
	return func() []byte { return b }
}
func (s *goldenSvc) Restore([]byte) error { return nil }

// goldenID is command i's ReqID: 1 to 300 bytes, on both sides of any
// inline-key limit a table might have.
func goldenID(i int) string {
	id := fmt.Sprintf("g%d#", i)
	return id + strings.Repeat("k", max(0, 1+(i*37)%300-len(id)))
}

// goldenStream is a fixed command sequence: 400 commands, every ninth
// sent twice in a row (an in-round duplicate), then retries of every
// seventeenth, most of them evicted from a 64-entry table by then.
func goldenStream() [][]byte {
	var stream [][]byte
	cmd := func(i int) []byte {
		return wireFor(goldenID(i), "rep0", "cli/addr", []byte{byte(i % 5), byte((i * 7) % 4)})
	}
	for i := 0; i < 400; i++ {
		stream = append(stream, cmd(i))
		if i%9 == 0 {
			stream = append(stream, cmd(i))
		}
	}
	for i := 0; i < 400; i += 17 {
		stream = append(stream, cmd(i))
	}
	return stream
}

// TestReplicaStateGolden applies the golden stream in rounds of 16 on
// a replica with a 64-entry dedup table and requires the encoded
// replicaState of a fork to equal, byte for byte, the one the sharded
// table (inline keys, per-entry buffers, FIFO ring of ReqID strings)
// produced for the same stream: the checkpoint and transfer bytes do
// not depend on the table's layout.
func TestReplicaStateGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/replica_state.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := startBenchReplica(t, &goldenSvc{})
	r.dedup = newDedupTable(64)
	stream := goldenStream()
	for i := 0; i < len(stream); i += 16 {
		var envs []*envelope
		for _, wire := range stream[i:min(i+16, len(stream))] {
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, append([]byte(nil), wire...)); err != nil {
				t.Fatal(err)
			}
			envs = append(envs, env)
		}
		r.applyBatch(envs)
	}
	drainReleaser(t, r)
	job := r.fork()
	got := (&replicaState{Applied: job.index, Service: job.encode(), DedupIDs: job.ids, DedupResp: job.resps}).encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("replicaState encoding differs from the golden: %d bytes, want %d", len(got), len(want))
	}
}
