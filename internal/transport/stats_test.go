package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestServerStatsPoll: a dedicated connection whose first frame is
// FrameStats gets a health snapshot per poll and stays open across polls —
// the contract a fleet router's placement loop depends on.
func TestServerStatsPoll(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:  stubSessions(func() *stubChecker { return &stubChecker{} }),
		Window:      4,
		MaxSessions: 8,
	})

	// One live session so the poll sees occupancy.
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() != 0 {
		t.Fatalf("bare-difftestd session reports %d migrations", cl.Migrations())
	}

	conn, err := DialFrame(spec, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	readStats := func() StatsInfo {
		t.Helper()
		fh, payload, err := conn.ReadFrame()
		if err != nil || fh.Type != FrameStats {
			t.Fatalf("stats reply: type=%d err=%v", fh.Type, err)
		}
		var si StatsInfo
		if err := DecodeControl(fh.Type, payload, &si); err != nil {
			t.Fatal(err)
		}
		releaseBuf(payload)
		return si
	}

	if err := conn.WriteFrame(FrameStats, nil); err != nil {
		t.Fatal(err)
	}
	si := readStats()
	if si.Active != 1 || si.Window != 4 || si.Capacity != 8 {
		t.Fatalf("first poll %+v, want Active=1 Window=4 Capacity=8", si)
	}

	// Same connection, second poll: the loop holds.
	if err := conn.WriteFrame(FrameStats, nil); err != nil {
		t.Fatal(err)
	}
	if si := readStats(); si.Window != 4 {
		t.Fatalf("second poll %+v", si)
	}

	// A non-poll frame on a stats connection is a protocol error.
	if err := conn.WriteFrame(FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := conn.ReadFrame()
	if err != nil || fh.Type != FrameErrorInfo {
		t.Fatalf("after bad poll frame: type=%d err=%v", fh.Type, err)
	}
	var ei ErrorInfo
	if err := DecodeControl(fh.Type, payload, &ei); err != nil {
		t.Fatal(err)
	}
	releaseBuf(payload)
	if ei.Code != "decode" {
		t.Fatalf("bad poll refused with %q, want decode", ei.Code)
	}

	if got := srv.StatsInfo(); got.Active != 1 || got.Served != 0 {
		t.Fatalf("server snapshot %+v mid-session", got)
	}
}
