package difftest

import (
	"io"

	"repro/internal/event"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// Tuning toolkit (paper §5): performance counters are exposed on Result;
// this file exposes the trace dump/reload support (iterative debugging) and
// the SQL engine (offline transmission analysis).

// Trace support.
type (
	// TraceWriter dumps per-cycle verification events.
	TraceWriter = trace.Writer
	// TraceReader replays a dumped trace.
	TraceReader = trace.Reader
	// Event is one verification event.
	Event = event.Event
	// EventRecord is one verification event as the monitor emits it: its
	// kind and wire encoding, stamped with its core and order tag.
	// EventRecord.Event decodes it.
	EventRecord = event.Record
	// EventKind identifies one of the 32 verification event types.
	EventKind = event.Kind
)

// NewTraceWriter starts a DUT-trace dump on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// NewTraceReader opens a dumped DUT trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// SQL analysis support.
type (
	// DB is the in-memory SQL database for transmission logs.
	DB = sqldb.DB
	// SQLResult is a query result set.
	SQLResult = sqldb.Result
	// ColumnDef declares a table column.
	ColumnDef = sqldb.ColumnDef
)

// SQL column types.
const (
	TypeInteger = sqldb.TypeInteger
	TypeReal    = sqldb.TypeReal
	TypeText    = sqldb.TypeText
)

// OpenDB returns an empty SQL database.
func OpenDB() *DB { return sqldb.Open() }

// EventSize returns the wire size in bytes of an event kind.
func EventSize(k EventKind) int { return event.SizeOf(k) }

// EventCategory returns the Table-1 category name of an event kind.
func EventCategory(k EventKind) string { return event.CategoryOf(k).String() }

// IsNDE reports whether an event instance is non-deterministic (interrupts,
// MMIO accesses) and must be synchronized into the reference model.
func IsNDE(ev Event) bool { return event.IsNDE(ev) }

// NumEventKinds is the number of verification event types (32).
const NumEventKinds = int(event.NumKinds)
