package control

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"oddci/internal/core/instance"
)

// NodeState is a PNA's activity state.
type NodeState uint8

// PNA states from §3.2.
const (
	StateIdle NodeState = iota
	StateBusy
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	if s == StateBusy {
		return "busy"
	}
	return "idle"
}

// Heartbeat is the periodic PNA → Controller status report carried on
// the direct channel: "these messages contain the PNA's state and the
// identification of the OddCI instance to which it currently belongs".
type Heartbeat struct {
	NodeID     uint64
	State      NodeState
	InstanceID instance.ID
	Profile    instance.DeviceProfile
	TasksDone  uint32
	SentAt     time.Time
}

// HeartbeatWireSize is the nominal on-the-wire size in bytes used for
// direct-channel pacing.
const HeartbeatWireSize = 64

// heartbeatLen bounds an encoded heartbeat: 38 bytes with a 9-byte
// profile.
const heartbeatLen = 40

// EncodeHeartbeat serializes a heartbeat into a new slice.
func EncodeHeartbeat(h *Heartbeat) []byte {
	return AppendHeartbeat(nil, h)
}

// AppendHeartbeat appends the encoding of h to b, growing b at most once,
// so a sender that beats into one reused buffer allocates only for its
// first beat.
func AppendHeartbeat(b []byte, h *Heartbeat) []byte {
	b = slices.Grow(b, heartbeatLen)
	b = binary.BigEndian.AppendUint64(b, h.NodeID)
	b = append(b, byte(h.State))
	b = binary.BigEndian.AppendUint64(b, uint64(h.InstanceID))
	b = h.Profile.Encode(b)
	b = binary.BigEndian.AppendUint32(b, h.TasksDone)
	b = binary.BigEndian.AppendUint64(b, uint64(h.SentAt.UnixNano()))
	return b
}

// DecodeHeartbeat reverses EncodeHeartbeat into a new Heartbeat.
func DecodeHeartbeat(b []byte) (*Heartbeat, error) {
	h := new(Heartbeat)
	if err := DecodeHeartbeatInto(b, h); err != nil {
		return nil, err
	}
	return h, nil
}

// DecodeHeartbeatInto reverses EncodeHeartbeat into *h, which a receiver
// reuses across beats. On an error *h holds no meaningful report.
func DecodeHeartbeatInto(b []byte, h *Heartbeat) error {
	if len(b) < 17 {
		return errors.New("control: truncated heartbeat")
	}
	h.NodeID = binary.BigEndian.Uint64(b)
	h.State = NodeState(b[8])
	h.InstanceID = instance.ID(binary.BigEndian.Uint64(b[9:]))
	var err error
	h.Profile, b, err = instance.DecodeProfile(b[17:])
	if err != nil {
		return err
	}
	if len(b) < 12 {
		return errors.New("control: truncated heartbeat tail")
	}
	h.TasksDone = binary.BigEndian.Uint32(b)
	h.SentAt = time.Unix(0, int64(binary.BigEndian.Uint64(b[4:]))).UTC()
	return nil
}

// Command is the Controller's instruction in a heartbeat reply —
// "adjust OddCI exceeding size replying heartbeat messages with a reset
// command".
type Command uint8

// Heartbeat reply commands.
const (
	CmdNone Command = iota
	CmdReset
)

// HeartbeatReply acknowledges a heartbeat.
type HeartbeatReply struct {
	Command Command
	// Period, if positive, re-tunes the PNA's heartbeat interval (the
	// Controller's back-pressure knob).
	Period time.Duration
}

// HeartbeatReplyWireSize is the nominal reply size in bytes.
const HeartbeatReplyWireSize = 16

// EncodeHeartbeatReply serializes a reply.
func EncodeHeartbeatReply(r *HeartbeatReply) []byte {
	b := make([]byte, 0, 9)
	b = append(b, byte(r.Command))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Period))
	return b
}

// DecodeHeartbeatReply reverses EncodeHeartbeatReply. The reply is
// returned by value, so decoding one allocates nothing.
func DecodeHeartbeatReply(b []byte) (HeartbeatReply, error) {
	if len(b) < 9 {
		return HeartbeatReply{}, errors.New("control: truncated heartbeat reply")
	}
	return HeartbeatReply{
		Command: Command(b[0]),
		Period:  time.Duration(binary.BigEndian.Uint64(b[1:])),
	}, nil
}
