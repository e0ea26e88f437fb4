package transport

import (
	"encoding/json"
	"fmt"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/workload"
)

// Hello is the client's session request: everything the server needs to
// rebuild the matching software side — the DUT and workload (by name, with
// the generation seed, so both ends derive the identical program image), the
// optimization configuration, and the wire-format digest that proves both
// binaries speak the same generated codec.
type Hello struct {
	Proto      uint16 `json:"proto"`
	WireDigest uint64 `json:"wire_digest"`

	DUT      string `json:"dut"`
	Platform string `json:"platform"`
	Config   string `json:"config"` // Z, EB, EBIN, EBINSD

	// Ablation switches riding on the named config.
	CoupleOrder bool `json:"couple_order,omitempty"`
	FixedOffset bool `json:"fixed_offset,omitempty"`
	MaxFuse     int  `json:"max_fuse,omitempty"`

	Workload     string `json:"workload"`
	TargetInstrs uint64 `json:"target_instrs"`
	Seed         int64  `json:"seed"`

	// Profile, when set, carries a full workload profile instead of a
	// built-in name — how a fuzzing campaign runs mutated parameter vectors
	// on a remote shard. Both ends still derive the identical program from
	// (profile, cores, seed); Workload/TargetInstrs above are ignored when
	// Profile is present.
	Profile *workload.Profile `json:"profile,omitempty"`

	// Tenant names the accounting principal this session bills to. A fleet
	// router enforces per-tenant admission quotas and scales the granted
	// token window by the tenant's fair share; a bare difftestd shard
	// ignores it. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Welcome is the server's session grant: the negotiated protocol, the
// server's wire digest (echoed so the client can diagnose a drift in either
// direction), the session id, and the initial token window. Every server
// parks broken sessions, so ResumeToken is always set: it is the capability
// a later Resume frame must present.
type Welcome struct {
	Proto       uint16 `json:"proto"`
	WireDigest  uint64 `json:"wire_digest"`
	Session     uint64 `json:"session"`
	Tokens      int    `json:"tokens"`
	ResumeToken uint64 `json:"resume_token,omitempty"`
}

// Credit returns tokens to the client's window. Ack is the cumulative count
// of data frames the server has consumed this session; the client prunes its
// replay window up to it, so the unacknowledged tail stays bounded by the
// token window.
type Credit struct {
	Tokens int    `json:"tokens"`
	Ack    uint64 `json:"ack,omitempty"`
}

// Resume reopens a parked session on a fresh connection: it is the first
// frame the client sends instead of Hello. Sent is how many data frames the
// client has transmitted this session, so the server can sanity-check the
// client's view against its own count before replaying anything.
type Resume struct {
	Proto   uint16 `json:"proto"`
	Session uint64 `json:"session"`
	Token   uint64 `json:"token"`
	Sent    uint64 `json:"sent"`
}

// ResumeOK accepts a resume. Have is the server's consumed data-frame count:
// the client prunes its replay window to Have and retransmits everything
// after it. Tokens regrants the window. Verdict replays an early mismatch
// verdict the broken connection may have lost; Final, when set, means the
// session already completed and carries the Done payload — nothing needs
// retransmission.
type ResumeOK struct {
	Have    uint64   `json:"have"`
	Tokens  int      `json:"tokens"`
	Verdict *Verdict `json:"verdict,omitempty"`
	Final   *Verdict `json:"final,omitempty"`
	// Migrated marks a resume that landed the session on a different backend
	// shard than before: the fleet router opened a fresh checker there
	// (Have = 0) and this resume's retransmission supplies the whole stream.
	// A bare difftestd shard never sets it; the client counts it as a
	// migration.
	Migrated bool `json:"migrated,omitempty"`
}

// MismatchReport is the typed mismatch-report payload: the checker's full
// diagnosis, serialized field-for-field so the client reconstructs the exact
// checker.Mismatch an in-process run would have produced.
type MismatchReport struct {
	Core   uint8  `json:"core"`
	Seq    uint64 `json:"seq"`
	Kind   uint8  `json:"kind"`
	PC     uint64 `json:"pc"`
	Detail string `json:"detail"`
	Fused  bool   `json:"fused,omitempty"`
}

// NewMismatchReport converts a checker diagnosis for the wire.
func NewMismatchReport(m *checker.Mismatch) *MismatchReport {
	if m == nil {
		return nil
	}
	return &MismatchReport{Core: m.Core, Seq: m.Seq, Kind: uint8(m.Kind),
		PC: m.PC, Detail: m.Detail, Fused: m.Fused}
}

// ToChecker reconstructs the checker diagnosis.
func (r *MismatchReport) ToChecker() *checker.Mismatch {
	if r == nil {
		return nil
	}
	return &checker.Mismatch{Core: r.Core, Seq: r.Seq, Kind: event.Kind(r.Kind),
		PC: r.PC, Detail: r.Detail, Fused: r.Fused}
}

// Verdict is the server's checking outcome, sent in a FrameVerdict as soon
// as a mismatch is diagnosed and in the FrameDone that closes every session.
type Verdict struct {
	Mismatch *MismatchReport `json:"mismatch,omitempty"`
	Finished bool            `json:"finished"`
	TrapCode uint64          `json:"trap_code,omitempty"`
	Events   uint64          `json:"events,omitempty"` // items checked server-side

	// Coverage is the checker's semantic coverage signal, attached to the
	// closing Done verdict when the session checker implements
	// CoverageReporter — the feedback channel for remotely-evaluated fuzzing
	// campaigns.
	Coverage *checker.Coverage `json:"coverage,omitempty"`
}

// StatsInfo is the FrameStats reply: an endpoint's health and occupancy
// counters. difftestd fills the session counters from its own state; a fleet
// router fills them with fleet-wide aggregates and adds the per-shard view.
type StatsInfo struct {
	Active     int    `json:"active"`               // sessions being served now
	Parked     uint64 `json:"parked"`               // sessions parked for resume (lifetime)
	Resumed    uint64 `json:"resumed"`              // successful resumes (lifetime)
	Served     uint64 `json:"served"`               // sessions run to completion
	Mismatches uint64 `json:"mismatches"`           // mismatch verdicts delivered
	Window     int    `json:"window"`               // configured token window
	Capacity   int    `json:"capacity,omitempty"`   // max concurrent sessions (0 = unlimited)
	Migrations uint64 `json:"migrations,omitempty"` // sessions moved between shards (router only)

	// Shards is the router's per-shard occupancy view (routers only).
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one backend's row in a router's StatsInfo.
type ShardStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"` // "healthy", "draining", "down"
	Active   int    `json:"active"`
	Parked   uint64 `json:"parked"`
	Resumed  uint64 `json:"resumed"`
	Served   uint64 `json:"served"`
	Capacity int    `json:"capacity,omitempty"`
	Sessions int    `json:"sessions"` // sessions the router has placed here
}

// DrainRequest asks a fleet router to withdraw one shard from placement and
// migrate its sessions elsewhere (FrameDrain payload, admin → router).
type DrainRequest struct {
	Shard string `json:"shard"`
	// Undrain returns a previously drained shard to the placement set
	// instead of withdrawing one.
	Undrain bool `json:"undrain,omitempty"`
}

// DrainReply reports a drain's effect (FrameDrain payload, router → admin).
type DrainReply struct {
	Shard string `json:"shard"`
	State string `json:"state"`
	// Redirected counts the active sessions that were told to redial; each
	// resumes onto a different shard through the migration path.
	Redirected int `json:"redirected"`
}

// Redirect tells a mid-session client to redial and resume elsewhere
// (FrameRedirect payload). The client treats it like a lost connection: the
// existing backoff/resume machinery redials, and the router places the
// resumed session on a healthy shard.
type Redirect struct {
	Reason string `json:"reason"`
}

// ErrorInfo is the FrameError payload.
type ErrorInfo struct {
	Code string `json:"code"` // "handshake", "decode", "idle", "overloaded", "quota", "internal", "resume"
	Msg  string `json:"msg"`
}

// Error implements error so a surfaced ErrorInfo reads naturally.
func (e *ErrorInfo) Error() string {
	return fmt.Sprintf("transport: server error (%s): %s", e.Code, e.Msg)
}

// EncodeControl marshals a control-frame payload; control frames are tiny
// and rare, so the allocation is irrelevant.
func EncodeControl(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All control payloads are plain structs; a marshal failure is a
		// programming error.
		panic(fmt.Sprintf("transport: encoding control frame: %v", err))
	}
	return b
}

// DecodeControl unmarshals a control-frame payload with frame-type context.
func DecodeControl(typ uint8, buf []byte, v any) error {
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("transport: corrupt control frame (type %d): %w", typ, err)
	}
	return nil
}
