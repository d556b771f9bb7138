package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// countingListener counts accepted connections and signals each server-side
// close, so tests can see dials and teardown from the server's side.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
	closed  chan struct{}
}

type signalConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *signalConn) Close() error {
	c.once.Do(func() { c.closed <- struct{}{} })
	return c.Conn.Close()
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return &signalConn{Conn: c, closed: l.closed}, nil
}

// serveTest runs Serve with h on a loopback listener for the test's
// lifetime.
func serveTest(t *testing.T, h Handler) (*countingListener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One slot per connection a test can open, so a close never blocks.
	cl := &countingListener{Listener: ln, closed: make(chan struct{}, 64)}
	done := make(chan struct{})
	go func() {
		Serve(cl, h)
		close(done)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return cl, ln.Addr().String()
}

var (
	here = route.Entry{ID: ids.FromDigits([]ids.Digit{1, 2, 3}), Addr: 4}
	away = route.Entry{ID: ids.FromDigits([]ids.Digit{3, 2, 1}), Addr: 5}
)

// testHandler serves `here` only: a VerifyReq call answers whether its GUID
// is the addressed ID, a TableBandReq call answers a band of Floor entries,
// a one-way BackAdd is counted, and an Ack request drops the connection.
// Anything else gets an Ack, which the server drops for a call expecting
// another type.
func testHandler(oneWays *atomic.Int32) Handler {
	return func(r *Request) (Msg, bool, bool) {
		if !r.To.ID.Equal(here.ID) || r.To.Addr != here.Addr {
			return nil, true, false
		}
		switch m := r.Msg.(type) {
		case *Ack:
			return nil, false, true
		case *VerifyReq:
			return &VerifyResp{Serves: m.GUID.Equal(r.To.ID)}, false, false
		case *TableBandReq:
			resp := &TableBandResp{}
			for i := 0; i < m.Floor; i++ {
				resp.Entries = append(resp.Entries, route.Entry{ID: here.ID, Addr: here.Addr + netsim.Addr(i)})
			}
			return resp, false, false
		case *BackAdd:
			if !r.Call {
				oneWays.Add(1)
				return nil, false, false
			}
		}
		return &Ack{}, false, false
	}
}

func TestClientCallOneWayGoneDrop(t *testing.T) {
	var oneWays atomic.Int32
	_, addr := serveTest(t, testHandler(&oneWays))
	c := NewClient(addr)
	defer c.Close()

	var v VerifyResp
	if err := c.Call(here, &VerifyReq{GUID: here.ID}, &v); err != nil || !v.Serves {
		t.Fatalf("call: serves=%v err=%v, want true, nil", v.Serves, err)
	}
	var band TableBandResp
	if err := c.Call(here, &TableBandReq{Floor: 300}, &band); err != nil || len(band.Entries) != 300 {
		t.Fatalf("large call: %d entries, err %v; want 300, nil", len(band.Entries), err)
	}
	if err := c.Call(here, &BackAdd{Level: 1}, nil); err != nil || oneWays.Load() != 1 {
		t.Fatalf("one-way: err %v, handler saw %d; want nil, 1", err, oneWays.Load())
	}
	if err := c.Call(away, &VerifyReq{GUID: here.ID}, &v); !errors.Is(err, ErrGone) {
		t.Fatalf("call to a node not served here: err %v, want ErrGone", err)
	}
	if err := c.Call(away, &BackAdd{}, nil); !errors.Is(err, ErrGone) {
		t.Fatalf("one-way to a node not served here: err %v, want ErrGone", err)
	}
	for name, ex := range map[string]func() error{
		"handler drop":          func() error { return c.Call(here, &Ack{}, nil) },
		"Ack for a VerifyResp":  func() error { return c.Call(here, &Ping{}, &VerifyResp{}) },
		"VerifyResp for a band": func() error { return c.Call(here, &VerifyReq{}, &TableBandResp{}) },
	} {
		if err := ex(); err == nil || errors.Is(err, ErrGone) {
			t.Errorf("%s: err %v, want the connection dropped", name, err)
		}
	}
	if err := c.Call(here, &VerifyReq{GUID: away.ID}, &v); err != nil || v.Serves {
		t.Fatalf("call after dropped connections: serves=%v err=%v, want false, nil", v.Serves, err)
	}
}

func TestClientReusesOneConnection(t *testing.T) {
	ln, addr := serveTest(t, testHandler(new(atomic.Int32)))
	c := NewClient(addr)
	defer c.Close()
	const calls = 50
	for i := 0; i < calls; i++ {
		var v VerifyResp
		if err := c.Call(here, &VerifyReq{GUID: here.ID}, &v); err != nil {
			t.Fatal(err)
		}
		if err := c.Call(away, &BackAdd{}, nil); !errors.Is(err, ErrGone) {
			t.Fatal(err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("%d sequential exchanges dialed %d times, want 1", 2*calls, n)
	}
}

// TestClientConcurrentCalls shares one Client among goroutines: every
// exchange gets its own answer, and the pool never holds more connections
// than there were calls in flight.
func TestClientConcurrentCalls(t *testing.T) {
	ln, addr := serveTest(t, testHandler(new(atomic.Int32)))
	c := NewClient(addr)
	defer c.Close()
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var band TableBandResp
				want := 1 + (w*calls+i)%40
				if err := c.Call(here, &TableBandReq{Floor: want}, &band); err != nil || len(band.Entries) != want {
					t.Errorf("worker %d call %d: %d entries, err %v; want %d", w, i, len(band.Entries), err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := ln.accepts.Load(); n < 1 || n > workers {
		t.Errorf("%d workers dialed %d connections", workers, n)
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	ln, addr := serveTest(t, testHandler(new(atomic.Int32)))
	c := NewClient(addr)
	if err := c.Call(here, &Ping{}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ln.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the idle connection open")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Call(here, &Ping{}, &Ack{}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Call after Close: err %v, want net.ErrClosed", err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("Call after Close dialed: %d accepts, want 1", n)
	}
}

// TestServeShutdownClosesConnections pins Serve's shutdown: once its
// listener closes, it closes the connections still open — here an idle
// pooled one and a raw one that never sent a byte — and returns only after
// their goroutines exit.
func TestServeShutdownClosesConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, closed: make(chan struct{}, 4)}
	done := make(chan struct{})
	go func() {
		Serve(cl, testHandler(new(atomic.Int32)))
		close(done)
	}()
	c := NewClient(ln.Addr().String())
	defer c.Close()
	if err := c.Call(here, &Ping{}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for cl.accepts.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	ln.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-cl.closed:
		default:
			t.Fatalf("Serve returned with %d of 2 connections still open", 2-i)
		}
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("raw connection read %v after shutdown, want EOF", err)
	}
}

// appendEnvelope frames req in the request envelope by hand, as a peer
// other than Client would.
func appendEnvelope(dst []byte, kind byte, to route.Entry, respType Type, req Msg) []byte {
	e := Enc{b: dst}
	e.U8(kind)
	e.Addr(to.Addr)
	e.ID(to.ID)
	e.U8(byte(respType))
	return AppendFrame(e.b, req)
}

// FuzzServe feeds arbitrary bytes through the server loop over net.Pipe.
// The handler exercises every answer — gone, drop, a one-way ack, a matching
// response, a missing one and a mistyped one — and the only requirement is
// that the loop never panics and returns once the peer hangs up.
func FuzzServe(f *testing.F) {
	var seq []byte
	for _, c := range []struct {
		kind     byte
		to       route.Entry
		respType Type
		req      Msg
	}{
		{kindCall, here, TVerifyResp, &VerifyReq{GUID: here.ID}},
		{kindCall, here, TAck, &Ping{}},
		{kindOneWay, here, 0, &BackAdd{Level: 2}},
		{kindCall, away, TAck, &Ping{}},
		{kindCall, here, 99, &Ping{}},
		{kindCall, here, TVerifyResp, &Ack{}},
	} {
		seq = appendEnvelope(seq, c.kind, c.to, c.respType, c.req)
		f.Add(appendEnvelope(nil, c.kind, c.to, c.respType, c.req))
	}
	f.Add(seq)
	f.Add([]byte{2, 0, 0, 0})
	f.Add([]byte{0, 8, 200})
	h := func(r *Request) (Msg, bool, bool) {
		switch {
		case r.To.Addr < 0:
			return nil, false, true
		case r.To.Addr%2 == 1:
			return nil, true, false
		case r.Call && r.To.Addr%3 == 0:
			return &Ack{}, false, false
		case r.Call:
			return New(r.RespType), false, false
		}
		return nil, false, false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			serveConn(srv, h)
			close(done)
		}()
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, cli)
			close(drained)
		}()
		cli.Write(data) // fails once the server drops the connection
		cli.Close()
		<-done
		<-drained
	})
}
