package pbs

import (
	"encoding/binary"

	"joshua/internal/codec"
)

// Server <-> mom wire protocol. One datagram per message, tagged with
// a kind byte, mirroring the TORQUE server/mom RPP protocol at the
// granularity this reproduction needs: job start and job kill from the
// sending head, and the mom's ack of a repeated start. A mom answers a
// start only when it repeats one for a job it is executing or
// emulating, so a job that ends before its first resend costs its node
// one datagram; the completion goes out through MomConfig.Complete.
//
//	start:   kind, job ID, name, owner, script, walltime, nodes
//	kill:    kind, job ID
//	started: kind, job ID
const (
	momKindStart byte = iota + 1
	momKindKill
	momKindStarted
)

// encodeStart encodes the start of j. The daemon keeps the frame for
// resends, so it is sized to fit.
func encodeStart(j *Job) []byte {
	n := 32 + len(j.ID) + len(j.Name) + len(j.Owner) + len(j.Script)
	for _, node := range j.Nodes {
		n += 2 + len(node)
	}
	e := codec.NewEncoder(n)
	e.PutByte(momKindStart)
	e.PutString(string(j.ID))
	e.PutString(j.Name)
	e.PutString(j.Owner)
	e.PutString(j.Script)
	e.PutDuration(j.WallTime)
	e.PutStringSlice(j.Nodes)
	return e.Bytes()
}

// encodeKill encodes the kill of job id.
func encodeKill(id JobID) []byte {
	e := codec.NewEncoder(8 + len(id))
	e.PutByte(momKindKill)
	e.PutString(string(id))
	return e.Bytes()
}

// decodeStart decodes a start datagram into a Job whose strings are
// views into payload, and the job's first node, the one that runs it:
// the only node the mom reads, so the job's Nodes stay nil and
// decoding allocates nothing. payload must be the caller's to keep and
// never written again, as a received transport.Message's Payload is;
// the job keeps it alive. ok is false for anything but a well-formed
// start.
func decodeStart(payload []byte) (j Job, first string, ok bool) {
	d := codec.NewDecoder(payload)
	d.ViewStrings()
	if d.Byte() != momKindStart {
		return Job{}, "", false
	}
	j = Job{
		ID:       JobID(d.Text()),
		Name:     d.Text(),
		Owner:    d.Text(),
		Script:   d.Text(),
		WallTime: d.Duration(),
	}
	for i, n := uint64(0), d.Uint(); i < n && d.Err() == nil; i++ {
		if node := d.Text(); i == 0 {
			first = node
		}
	}
	return j, first, d.Finish() == nil
}

// appendStarted appends the ack of a repeated start for job id to b,
// the ID laid out as codec's PutString, without an Encoder, so the mom
// can reuse one buffer.
func appendStarted(b, id []byte) []byte {
	b = append(b, momKindStarted)
	b = binary.AppendUvarint(b, uint64(len(id)))
	return append(b, id...)
}

// decodeStarted returns the job ID of a started frame, a view into
// payload; ok is false for anything else.
func decodeStarted(payload []byte) (id []byte, ok bool) {
	d := codec.NewDecoder(payload)
	if d.Byte() != momKindStarted {
		return nil, false
	}
	id = d.Bytes()
	return id, d.Finish() == nil
}
