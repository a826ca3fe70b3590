package core

// Message wire sizes in bytes, shared by all strategies so that congestion
// numbers are comparable. A data message carries the header plus the
// variable's payload.
const (
	// HeaderBytes is the fixed per-message header (kind, variable id,
	// sequence, source).
	HeaderBytes = 16
	// ReadReqBytes is a read request hop.
	ReadReqBytes = 24
	// InvalBytes is an invalidation message.
	InvalBytes = 16
	// AckBytes is an acknowledgment.
	AckBytes = 8
	// GrantBytes is a small completion/grant message.
	GrantBytes = 8
	// BarrierBytes is a barrier arrive/release message without reduction
	// payload.
	BarrierBytes = 8
	// LockBytes is a lock request/token/release message.
	LockBytes = 16
)

// Message kinds, below mesh.NumKinds (32): 0 is the inbox's, 1 to 14 the
// machine's and the network's (the barrier's two), 15 the transport ack's
// (mesh.KindTransportAck), 16 to 31 the data management strategies'.
const (
	KindBarrierArrive  uint8 = 1
	KindBarrierRelease uint8 = 2
	KindStrategyBase   uint8 = 16
)

// DataBytes returns the wire size of a message carrying a variable's
// payload.
func DataBytes(size int) int { return HeaderBytes + size }
