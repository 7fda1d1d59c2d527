package pbs

import (
	"fmt"
	"time"

	"joshua/internal/codec"
)

// Server -> mom wire protocol. One datagram per message, tagged with
// a kind byte, mirroring the TORQUE server/mom RPP protocol at the
// granularity this reproduction needs: job start and job kill. A mom
// answers nothing on this channel; its completion goes out through
// MomConfig.Complete.
const (
	momKindStart byte = iota + 1
	momKindKill
)

// momMsg is the union of mom protocol messages.
type momMsg struct {
	Kind byte
	// All kinds.
	JobID JobID
	// momKindStart.
	Name     string
	Owner    string
	Script   string
	WallTime time.Duration
	Nodes    []string
}

func (m *momMsg) encode() []byte {
	e := codec.NewEncoder(64 + len(m.Script))
	e.PutByte(m.Kind)
	e.PutString(string(m.JobID))
	switch m.Kind {
	case momKindStart:
		e.PutString(m.Name)
		e.PutString(m.Owner)
		e.PutString(m.Script)
		e.PutDuration(m.WallTime)
		e.PutStringSlice(m.Nodes)
	case momKindKill:
	default:
		panic(fmt.Sprintf("pbs: encoding unknown mom message kind %d", m.Kind))
	}
	return e.Bytes()
}

func decodeMomMsg(b []byte) (*momMsg, error) {
	d := codec.NewDecoder(b)
	m := &momMsg{
		Kind:  d.Byte(),
		JobID: JobID(d.String()),
	}
	switch m.Kind {
	case momKindStart:
		m.Name = d.String()
		m.Owner = d.String()
		m.Script = d.String()
		m.WallTime = d.Duration()
		m.Nodes = d.StringSlice()
	case momKindKill:
	default:
		return nil, fmt.Errorf("pbs: unknown mom message kind %d", m.Kind)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("pbs: decoding mom message kind %d: %w", m.Kind, err)
	}
	return m, nil
}
