package client

import (
	"bufio"
	"context"
	"net"
	"testing"

	"repro/internal/wire"
)

// gatedConn holds each write's return until gate closes, so the caller
// of a flush wakes only after everything gate waits for has happened.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	<-c.gate
	return n, err
}

// TestRoundTripPrefersDeliveredResponse forces the ordering behind the
// quit/EOF race: the server answers and hangs up, readLoop delivers the
// response and then closes the link's done channel on EOF, and only
// then does roundTrip reach its select — with both ready.  The answer
// must win every time; before the fix select chose at random and the
// caller saw "connection closed" about half the time.
func TestRoundTripPrefersDeliveredResponse(t *testing.T) {
	for i := 0; i < 100; i++ {
		cl := &Client{done: make(chan struct{}), events: make(chan *wire.JobEvent, eventQueue)}
		cli, srv := net.Pipe()
		ln := &link{cl: cl, pending: map[uint64]chan *wire.Response{}, done: make(chan struct{})}
		ln.nc = &gatedConn{Conn: cli, gate: ln.done}
		ln.bw = bufio.NewWriter(ln.nc)
		cl.ln = ln
		go func() {
			defer srv.Close()
			req, err := wire.DecodeRequest(srv)
			if err != nil {
				return
			}
			_ = wire.EncodeResponse(srv, &wire.Response{ID: req.ID, Result: []byte(`"bye"`)})
		}()
		go ln.readLoop()
		resp, err := ln.roundTrip(context.Background(), &wire.Request{Command: []byte(`{}`)})
		if err != nil {
			t.Fatalf("round %d: delivered response lost to the closed link: %v", i, err)
		}
		if string(resp.Result) != `"bye"` {
			t.Fatalf("round %d: result %s, want \"bye\"", i, resp.Result)
		}
	}
}
