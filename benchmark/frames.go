package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// The frame loops measure a transport by itself: 4 KiB frames (Palladium's
// packet size) echoed by a server goroutine through the same Listen/DialFrame
// seam difftestd uses, with no protocol and no checker on top.
const (
	framePayload  = 4096
	rttFrames     = 2000
	streamFrames  = 8000
	frameDialWait = 5 * time.Second
)

type frameNumbers struct {
	rttUsP50   float64
	streamMBps float64
}

// echoFrames measures round-trip time (one frame in flight) and streaming
// rate (writer and reader running apart) against an echo server on spec.
func echoFrames(spec string) (frameNumbers, error) {
	var out frameNumbers
	l, err := transport.Listen(spec)
	if err != nil {
		return out, err
	}
	defer l.Close()

	srvErr := make(chan error, 1)
	go func() {
		conn, err := l.AcceptFrame()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		for {
			h, buf, err := conn.ReadFrame()
			if err != nil {
				srvErr <- nil // the client closed after its loops
				return
			}
			err = conn.WriteFrame(h.Type, buf)
			conn.ReleasePayload(buf)
			if err != nil {
				srvErr <- err
				return
			}
		}
	}()

	conn, err := transport.DialFrame(spec, frameDialWait)
	if err != nil {
		l.Close()
		<-srvErr
		return out, err
	}
	payload := make([]byte, framePayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	read := func() error {
		_, buf, err := conn.ReadFrame()
		if err != nil {
			return err
		}
		n := len(buf)
		conn.ReleasePayload(buf)
		if n != framePayload {
			return fmt.Errorf("echo returned %d bytes, want %d", n, framePayload)
		}
		return nil
	}

	loops := func() error {
		rtts := make([]float64, 0, rttFrames)
		for i := 0; i < rttFrames+100; i++ {
			t0 := time.Now()
			if err := conn.WriteFrame(transport.FramePacket, payload); err != nil {
				return err
			}
			if err := read(); err != nil {
				return err
			}
			if i >= 100 { // the first hundred warm the path
				rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		out.rttUsP50 = median(rtts)

		var wg sync.WaitGroup
		var readErr error
		t0 := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < streamFrames; i++ {
				if readErr = read(); readErr != nil {
					return
				}
			}
		}()
		var writeErr error
		for i := 0; i < streamFrames && writeErr == nil; i++ {
			writeErr = conn.WriteFrame(transport.FramePacket, payload)
		}
		if writeErr != nil {
			conn.Close() // unblock the reader
		}
		wg.Wait()
		if err := errors.Join(writeErr, readErr); err != nil {
			return err
		}
		out.streamMBps = float64(streamFrames*framePayload) / 1e6 / time.Since(t0).Seconds()
		return nil
	}
	err = loops()
	conn.Close()
	return out, errors.Join(err, <-srvErr)
}
