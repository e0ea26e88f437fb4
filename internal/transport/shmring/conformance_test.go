package shmring

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
)

// conformanceEnd is one side of a connected pair under test: the seam
// implementation plus a raw-injection hook that pushes arbitrary frame-stream
// bytes toward the peer, bypassing the well-formed WriteFrame path.
type conformanceEnd struct {
	ft  transport.FrameTransport
	raw func([]byte) error
}

// openNetPair builds a connected socket pair through the real listener and
// dialer for a spec, keeping the dialer's net.Conn for raw injection.
func openNetPair(t *testing.T, spec string) (a, b conformanceEnd) {
	t.Helper()
	l, err := transport.Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.FrameTransport, 1)
	go func() {
		ft, err := l.AcceptFrame()
		if err != nil {
			return
		}
		accepted <- ft
	}()
	sp, err := transport.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	addr := sp.Addr
	if sp.Scheme == "tcp" {
		// The spec asked for port 0; dial what the listener actually bound.
		addr = l.Addr()
	}
	nc, err := net.DialTimeout(sp.Scheme, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	t.Cleanup(func() { srv.Close() })
	a = conformanceEnd{
		ft:  transport.NewConn(nc),
		raw: func(p []byte) error { _, err := nc.Write(p); return err },
	}
	return a, conformanceEnd{ft: srv}
}

// injectRaw publishes arbitrary bytes into c's write ring as if they were a
// frame — the shm analogue of writing garbage to a socket. Test-only; the
// bytes must fit the ring's contiguous tail (fresh rings in these tests do).
func injectRaw(c *Conn, p []byte) error {
	w := &c.wr
	head := w.head.Load()
	pos := head & w.mask
	if uint64(len(p)) > uint64(len(w.data))-pos {
		return errors.New("injectRaw: would wrap")
	}
	copy(w.data[pos:], p)
	w.head.Store(head + uint64(len(p)))
	return nil
}

// harnesses enumerates every transport family the conformance suite runs
// against. The shm entries cover both the in-process pair and the full
// file-rendezvous path.
func harnesses(t *testing.T) []struct {
	name string
	open func(t *testing.T) (a, b conformanceEnd)
} {
	return []struct {
		name string
		open func(t *testing.T) (a, b conformanceEnd)
	}{
		{"tcp", func(t *testing.T) (conformanceEnd, conformanceEnd) {
			return openNetPair(t, "tcp://127.0.0.1:0")
		}},
		{"unix", func(t *testing.T) (conformanceEnd, conformanceEnd) {
			return openNetPair(t, "unix://"+filepath.Join(t.TempDir(), "c.sock"))
		}},
		{"shm", func(t *testing.T) (conformanceEnd, conformanceEnd) {
			cl, srv, err := Pair(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close(); srv.Close() })
			return conformanceEnd{ft: cl, raw: func(p []byte) error { return injectRaw(cl, p) }},
				conformanceEnd{ft: srv}
		}},
		{"shm-rendezvous", func(t *testing.T) (conformanceEnd, conformanceEnd) {
			spec := "shm://" + filepath.Join(t.TempDir(), "rings") + "?ring=65536"
			l, err := transport.Listen(spec)
			if err != nil {
				t.Skipf("shm rendezvous unavailable: %v", err)
			}
			t.Cleanup(func() { l.Close() })
			accepted := make(chan transport.FrameTransport, 1)
			go func() {
				ft, err := l.AcceptFrame()
				if err != nil {
					return
				}
				accepted <- ft
			}()
			cl, err := transport.DialFrame(spec, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			srv := <-accepted
			t.Cleanup(func() { cl.Close(); srv.Close() })
			return conformanceEnd{ft: cl, raw: func(p []byte) error { return injectRaw(cl.(*Conn), p) }},
				conformanceEnd{ft: srv}
		}},
	}
}

// rawFrame hand-encodes one frame for injection, applying mutate to the
// header (after the correct checksum is computed) so tests can forge
// corruption.
func rawFrame(typ uint8, seq uint64, payload []byte, mutate func(*transport.FrameHeader)) []byte {
	h := transport.FrameHeader{
		Magic: transport.FrameMagic, Type: typ,
		Length: uint32(len(payload)), Seq: seq,
	}
	h.Check = h.Sum(payload)
	if mutate != nil {
		mutate(&h)
	}
	return append(h.AppendTo(nil), payload...)
}

// TestConformanceRoundTrip drives every transport through the shared
// contract: bidirectional frames of mixed sizes (including zero-length and
// ring-wrapping runs), payload integrity, ownership release, and pool
// balance. Run under -race this also checks the publish/consume fences.
func TestConformanceRoundTrip(t *testing.T) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) {
			gets0, puts0 := event.PoolStats()
			a, b := h.open(t)

			// Mixed sizes force several ring wraps on a 64 KiB ring and
			// cover the coalesced and vectored socket write paths.
			sizes := []int{0, 1, 7, 100, 4096, 9000, 100, 0, 25000, 3}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // echo server on b
				defer wg.Done()
				for {
					fh, payload, err := b.ft.ReadFrame()
					if err != nil {
						return
					}
					werr := b.ft.WriteFrame(fh.Type, payload)
					b.ft.ReleasePayload(payload)
					if werr != nil {
						return
					}
				}
			}()

			for round := 0; round < 8; round++ {
				for i, n := range sizes {
					out := make([]byte, n)
					for j := range out {
						out[j] = byte(round + i + j)
					}
					if err := a.ft.WriteFrame(transport.FramePacket, out); err != nil {
						t.Fatalf("round %d frame %d write: %v", round, i, err)
					}
					fh, back, err := a.ft.ReadFrame()
					if err != nil {
						t.Fatalf("round %d frame %d read: %v", round, i, err)
					}
					if fh.Type != transport.FramePacket || int(fh.Length) != n || !bytes.Equal(back, out) {
						t.Fatalf("round %d frame %d: echo mismatch (type %d, %d bytes)", round, i, fh.Type, fh.Length)
					}
					a.ft.ReleasePayload(back)
				}
			}
			a.ft.Close()
			wg.Wait()
			b.ft.Close()
			gets1, puts1 := event.PoolStats()
			if gets1-gets0 != puts1-puts0 {
				t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
			}
		})
	}
}

// TestConformanceCorruptCRC injects a frame whose checksum does not cover
// its bytes: every transport must surface a *transport.FrameError wrapping
// ErrBadChecksum, never deliver the payload.
func TestConformanceCorruptCRC(t *testing.T) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) {
			a, b := h.open(t)
			if err := a.raw(rawFrame(transport.FramePacket, 0, []byte("payload"), func(fh *transport.FrameHeader) {
				fh.Check ^= 0xdeadbeef
			})); err != nil {
				t.Fatal(err)
			}
			b.ft.SetReadTimeout(5 * time.Second)
			_, payload, err := b.ft.ReadFrame()
			if payload != nil {
				t.Fatal("corrupt frame delivered a payload")
			}
			var fe *transport.FrameError
			if !errors.As(err, &fe) || !errors.Is(err, transport.ErrBadChecksum) {
				t.Fatalf("corrupt CRC surfaced %v, want a FrameError wrapping ErrBadChecksum", err)
			}
		})
	}
}

// TestConformanceTruncatedFrame injects a header announcing more payload
// than ever arrives, then closes the writer: the reader must fail with a
// typed *transport.FrameError — never a bare io.EOF, which is reserved for a
// clean close at a frame boundary.
func TestConformanceTruncatedFrame(t *testing.T) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) {
			a, b := h.open(t)
			full := rawFrame(transport.FramePacket, 0, make([]byte, 100), nil)
			if err := a.raw(full[:transport.FrameHeaderSize+10]); err != nil {
				t.Fatal(err)
			}
			a.ft.Close()
			b.ft.SetReadTimeout(5 * time.Second)
			_, payload, err := b.ft.ReadFrame()
			if payload != nil {
				t.Fatal("truncated frame delivered a payload")
			}
			if err == nil || errors.Is(err, io.EOF) && !isFrameError(err) {
				t.Fatalf("truncated frame surfaced %v, want a typed FrameError", err)
			}
			var fe *transport.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("truncated frame surfaced %T (%v), want *transport.FrameError", err, err)
			}
		})
	}
}

func isFrameError(err error) bool {
	var fe *transport.FrameError
	return errors.As(err, &fe)
}

// TestConformanceCleanEOF pins the other half of the error contract: a peer
// that closes between frames yields bare io.EOF on every transport.
func TestConformanceCleanEOF(t *testing.T) {
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) {
			a, b := h.open(t)
			if err := a.ft.WriteFrame(transport.FrameEnd, nil); err != nil {
				t.Fatal(err)
			}
			a.ft.Close()
			b.ft.SetReadTimeout(5 * time.Second)
			fh, payload, err := b.ft.ReadFrame()
			if err != nil || fh.Type != transport.FrameEnd {
				t.Fatalf("pre-close frame: type %d err %v", fh.Type, err)
			}
			b.ft.ReleasePayload(payload)
			if _, _, err := b.ft.ReadFrame(); err != io.EOF {
				t.Fatalf("read after clean close = %v, want bare io.EOF", err)
			}
		})
	}
}

// releaseCounter wraps a transport and tracks payloads read but not yet
// released, so a test can tell exactly when a caller gave a payload back.
type releaseCounter struct {
	transport.FrameTransport
	held atomic.Int64
}

func (c *releaseCounter) ReadFrame() (transport.FrameHeader, []byte, error) {
	h, p, err := c.FrameTransport.ReadFrame()
	if p != nil {
		c.held.Add(1)
	}
	return h, p, err
}

func (c *releaseCounter) ReleasePayload(p []byte) {
	if p != nil {
		c.held.Add(-1)
	}
	c.FrameTransport.ReleasePayload(p)
}

// declaredFrameKinds reads every Frame* uint8 constant the transport package
// declares, so a frame kind added later is covered without editing the test.
func declaredFrameKinds(t *testing.T) map[string]uint8 {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "..", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]uint8)
	for _, f := range pkgs["transport"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "uint8" {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Frame") {
						continue
					}
					lit := vs.Values[i].(*ast.BasicLit)
					v, err := strconv.ParseUint(lit.Value, 0, 8)
					if err != nil {
						t.Fatalf("%s = %s: %v", name.Name, lit.Value, err)
					}
					kinds[name.Name] = uint8(v)
				}
			}
		}
	}
	if len(kinds) < 14 {
		t.Fatalf("found %d frame kinds, want at least the 14 of protocol v2", len(kinds))
	}
	return kinds
}

// TestConformanceCall pins transport.Call's reply contract on every
// transport, for every declared frame kind sent as the reply: the wanted kind
// decodes into the reply, ErrorInfo comes back as the peer's refusal, and
// any other kind is an error naming it. On every path the payload is
// released before Call returns — on the shm ring a late release would race
// the next exchange on the same connection, which every call here is.
func TestConformanceCall(t *testing.T) {
	kinds := declaredFrameKinds(t)
	calls := []struct{ req, want uint8 }{
		{transport.FrameHello, transport.FrameWelcome},
		{transport.FrameResume, transport.FrameResumeOK},
		{transport.FrameStats, transport.FrameStats},
		{transport.FrameDrain, transport.FrameDrain},
	}
	for _, h := range harnesses(t) {
		t.Run(h.name, func(t *testing.T) {
			gets0, puts0 := event.PoolStats()
			a, b := h.open(t)
			cl := &releaseCounter{FrameTransport: a.ft}
			cl.SetReadTimeout(5 * time.Second)

			// The peer answers each request with the next queued reply kind;
			// one JSON object decodes as a Welcome, a Credit-like reply and
			// an ErrorInfo alike.
			replies := make(chan uint8)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for typ := range replies {
					_, p, err := b.ft.ReadFrame()
					if err != nil {
						return
					}
					b.ft.ReleasePayload(p)
					if b.ft.WriteFrame(typ, []byte(`{"tokens":3,"code":"test","msg":"refused"}`)) != nil {
						return
					}
				}
			}()

			for _, c := range calls {
				for name, kind := range kinds {
					replies <- kind
					var reply transport.Welcome
					ei, err := transport.Call(cl, c.req, nil, c.want, &reply)
					if n := cl.held.Load(); n != 0 {
						t.Fatalf("want %d, reply %s: %d payload(s) still held after Call returned", c.want, name, n)
					}
					if kind == c.want {
						if ei != nil || err != nil || reply.Tokens != 3 {
							t.Fatalf("want %d, reply %s: got %+v, %v, %v; want the decoded reply", c.want, name, reply, ei, err)
						}
					} else if kind == transport.FrameErrorInfo {
						if err != nil || ei == nil || ei.Code != "test" || ei.Msg != "refused" {
							t.Fatalf("want %d, reply %s: got %v, %v; want the peer's ErrorInfo", c.want, name, ei, err)
						}
					} else if ei != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unexpected frame type %d ", kind)) {
						t.Fatalf("want %d, reply %s: got %v, %v; want an error naming frame type %d", c.want, name, ei, err, kind)
					}
				}
			}
			close(replies)
			a.ft.Close()
			wg.Wait()
			b.ft.Close()
			gets1, puts1 := event.PoolStats()
			if gets1-gets0 != puts1-puts0 {
				t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
			}
		})
	}
}
