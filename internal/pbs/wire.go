package pbs

import "joshua/internal/codec"

// Server -> mom wire protocol. One datagram per message, tagged with
// a kind byte, mirroring the TORQUE server/mom RPP protocol at the
// granularity this reproduction needs: job start and job kill. A mom
// answers nothing on this channel; its completion goes out through
// MomConfig.Complete.
//
//	start: kind, job ID, name, owner, script, walltime, nodes
//	kill:  kind, job ID
const (
	momKindStart byte = iota + 1
	momKindKill
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
// substrings of one copy of the datagram: that copy and the Nodes slice
// are its only allocations. ok is false for anything but a well-formed
// start.
func decodeStart(payload []byte) (j Job, ok bool) {
	d := codec.NewDecoder(payload)
	d.ShareStrings()
	if d.Byte() != momKindStart {
		return Job{}, false
	}
	j = Job{
		ID:       JobID(d.Text()),
		Name:     d.Text(),
		Owner:    d.Text(),
		Script:   d.Text(),
		WallTime: d.Duration(),
		Nodes:    d.StringSlice(),
	}
	return j, d.Finish() == nil
}
