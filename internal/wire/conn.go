package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// The socket layer. Every TCP exchange in the repository — core's TCP
// transport, the tapestry-node daemons forwarding walk hops, and the
// examples/cluster harness driving them — is one request envelope on a
// pooled connection:
//
//	[u8 kind: 0 call / 1 one-way][zigzag to.Addr][u8 idLen][id digits]
//	[u8 response type][framed request]
//
// answered by [u8 status: 0 ok / 1 gone], followed by the framed response
// for an answered call. A one-way's status byte is an uncharged transport
// ack that keeps delivery synchronous. The envelope names the overlay node
// a request is for, so a server hosting no such node (or a different one at
// that address) answers gone instead of acting on the wrong node.

const (
	kindCall   = 0
	kindOneWay = 1

	statusOK   = 0
	statusGone = 1

	// timeout bounds every exchange, the dial included. A daemon-routed
	// locate spanning d hops holds d nested exchanges, so it is generous.
	timeout = 60 * time.Second

	// maxIdle caps the connections a Client keeps for reuse.
	maxIdle = 64
)

// ErrGone is the error Client.Call returns when the server hosts no live
// node with the addressed ID at the addressed overlay address.
var ErrGone = errors.New("wire: addressed node is gone")

// Request is one decoded envelope as a Handler sees it.
type Request struct {
	To       route.Entry // the addressed node; only ID and Addr travel
	Call     bool        // false for a one-way
	RespType Type        // the response type a call expects
	Msg      Msg
}

// Handler serves one request. It returns the response for a call (nil for
// a one-way), gone when the addressed node is not here, or drop to close
// the connection without an answer. A call answered with no response, or
// with a response of a type other than the one its envelope names, is
// dropped too: the server fails closed.
type Handler func(r *Request) (resp Msg, gone, drop bool)

// Serve accepts connections on ln until it closes, serving each on its own
// goroutine. Once Accept fails it closes the connections still open, waits
// for their goroutines to exit, and returns the Accept error — so a caller
// that closes ln and waits for Serve knows the server is gone.
func Serve(ln net.Listener, h Handler) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	for {
		c, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
			return err
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(c, h)
			mu.Lock()
			delete(conns, c)
			mu.Unlock()
		}()
	}
}

// serveConn answers requests on one connection until the peer closes it or
// a request fails to decode or to be served.
func serveConn(c net.Conn, h Handler) {
	defer c.Close()
	br := bufio.NewReader(c)
	var r Request
	var frame, out []byte
	for {
		var err error
		if frame, err = readRequest(br, &r, frame); err != nil {
			return
		}
		resp, gone, drop := h(&r)
		switch {
		case drop:
			return
		case gone:
			out = append(out[:0], statusGone)
		case !r.Call:
			out = append(out[:0], statusOK)
		case resp == nil || resp.WireType() != r.RespType:
			return
		default:
			out = AppendFrame(append(out[:0], statusOK), resp)
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// readRequest decodes one envelope into r, reading its frame into the
// reused buffer it returns.
func readRequest(br *bufio.Reader, r *Request, frame []byte) ([]byte, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return frame, err
	}
	if kind != kindCall && kind != kindOneWay {
		return frame, fmt.Errorf("wire: envelope kind %d", kind)
	}
	addr, err := binary.ReadVarint(br)
	if err != nil {
		return frame, err
	}
	n, err := br.ReadByte()
	if err != nil {
		return frame, err
	}
	if n > maxDigits {
		return frame, fmt.Errorf("wire: envelope id length %d", n)
	}
	digits, err := br.Peek(int(n))
	if err != nil {
		return frame, err
	}
	to := route.Entry{ID: ids.FromDigits(digits), Addr: netsim.Addr(addr)}
	_, _ = br.Discard(int(n)) // cannot fail: Peek buffered these n bytes
	respType, err := br.ReadByte()
	if err != nil {
		return frame, err
	}
	if frame, err = ReadFrame(br, frame); err != nil {
		return frame, err
	}
	msg, _, err := DecodeFrame(frame)
	if err != nil {
		return frame, err
	}
	*r = Request{To: to, Call: kind == kindCall, RespType: Type(respType), Msg: msg}
	return frame, nil
}

// Client exchanges envelopes with one server address over pooled
// connections. It is safe for concurrent use; each Call holds a connection
// of its own for the duration of the exchange.
type Client struct {
	addr   string
	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// clientConn is one pooled connection with its reader and a buffer reused
// for every request and response frame it carries.
type clientConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

// NewClient returns a client for the server at addr (host:port). It dials
// lazily, on the first Call that finds no idle connection.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Call sends req to the node `to` (its ID and Addr) and, for a non-nil
// resp, decodes the answer into resp; a nil resp sends a one-way. It
// returns ErrGone when the server answers that the node is not there, and
// any dial, I/O or decode error otherwise.
func (cl *Client) Call(to route.Entry, req, resp Msg) error {
	cc, err := cl.get()
	if err != nil {
		return err
	}
	if err = cc.exchange(to, req, resp); err != nil && err != ErrGone {
		cc.c.Close()
		return err
	}
	cl.put(cc)
	return err
}

// exchange writes one envelope and reads its answer. The connection stays
// reusable only when it returns nil or ErrGone.
func (cc *clientConn) exchange(to route.Entry, req, resp Msg) error {
	if err := cc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	kind, respType := byte(kindOneWay), Type(0)
	if resp != nil {
		kind, respType = kindCall, resp.WireType()
	}
	e := Enc{b: cc.buf[:0]}
	e.U8(kind)
	e.Addr(to.Addr)
	e.ID(to.ID)
	e.U8(byte(respType))
	cc.buf = AppendFrame(e.b, req)
	if _, err := cc.c.Write(cc.buf); err != nil {
		return err
	}
	status, err := cc.br.ReadByte()
	switch {
	case err != nil:
		return err
	case status == statusGone:
		return ErrGone
	case status != statusOK:
		return fmt.Errorf("wire: reply status %d", status)
	case resp == nil:
		return nil
	}
	if cc.buf, err = ReadFrame(cc.br, cc.buf); err != nil {
		return err
	}
	_, err = DecodeFrameInto(cc.buf, resp)
	return err
}

// get checks out an idle connection or dials a new one.
func (cl *Client) get() (*clientConn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, net.ErrClosed
	}
	if k := len(cl.idle); k > 0 {
		cc := cl.idle[k-1]
		cl.idle = cl.idle[:k-1]
		cl.mu.Unlock()
		return cc, nil
	}
	cl.mu.Unlock()
	c, err := net.DialTimeout("tcp", cl.addr, timeout)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: c, br: bufio.NewReader(c)}, nil
}

// put returns a healthy connection to the pool, or closes it when the
// client is closed or the pool is full.
func (cl *Client) put(cc *clientConn) {
	cl.mu.Lock()
	if !cl.closed && len(cl.idle) < maxIdle {
		cl.idle = append(cl.idle, cc)
		cc = nil
	}
	cl.mu.Unlock()
	if cc != nil {
		cc.c.Close()
	}
}

// Close closes every idle connection; connections in use close when their
// exchange ends. Later calls fail with net.ErrClosed. Close is idempotent.
func (cl *Client) Close() error {
	cl.mu.Lock()
	idle := cl.idle
	cl.idle, cl.closed = nil, true
	cl.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	return nil
}
