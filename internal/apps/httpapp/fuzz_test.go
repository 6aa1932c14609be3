package httpapp

import (
	"bytes"
	"testing"

	"ddoshield/internal/netstack"
)

// segments cuts data where cuts says: each byte of cuts is the length, less
// one, of the next segment; the last segment takes what is left. Empty
// segments are dropped, as TCP never delivers one.
func segments(data, cuts []byte) [][]byte {
	var out [][]byte
	for _, c := range cuts {
		if len(data) == 0 {
			break
		}
		n := min(int(c)+1, len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	if len(data) > 0 {
		out = append(out, data)
	}
	return out
}

// deliver hands each segment to fn in a buffer of its own, and overwrites
// the buffer once fn returns: a segment is valid only during the call, so a
// parser that kept one would read the overwrite. fn returns false to stop.
func deliver(segs [][]byte, fn func(d []byte) bool) {
	for _, seg := range segs {
		d := bytes.Clone(seg)
		more := fn(d)
		for i := range d {
			d[i] = 0xEE
		}
		if !more {
			return
		}
	}
}

// FuzzHTTPHead feeds arbitrary bytes, cut into segments where the fuzzer
// says, to the server's request parser and the client's response parser,
// and to the server's and a fetch's data callbacks on live connections.
// Nothing may panic, and the request line and Content-Length parsed from the
// segments must be those parsed from the bytes whole.
func FuzzHTTPHead(f *testing.F) {
	f.Add([]byte("GET /obj/17 HTTP/1.1\r\nHost: tserver\r\n\r\n"), []byte{3, 20})
	f.Add([]byte("POST / HTTP/1.1\r\n\r\n"), []byte{0, 0, 0, 0})
	f.Add([]byte(okHeaderPrefix+"12\r\n\r\nhello, world"), []byte{10, 30, 1})
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: -4\r\nContent-Length: 9\r\n\r\n"), []byte{60})
	f.Add(append(bytes.Repeat([]byte("x"), maxRequestHead), "\r\n\r\n"...), []byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		segs := segments(data, cuts)

		// The request line, whole and in segments.
		var whole headBuffer
		wantLine, wantOK, wantLong := whole.request(bytes.Clone(data))
		wantLine = bytes.Clone(wantLine)
		var split headBuffer
		var line []byte
		ok, tooLong := false, false
		deliver(segs, func(d []byte) bool {
			var l []byte
			l, ok, tooLong = split.request(d)
			line = bytes.Clone(l)
			return !ok && !tooLong
		})
		switch {
		case ok:
			if !wantOK || !bytes.Equal(line, wantLine) {
				t.Fatalf("request line %q in segments, %q (ok %v) whole", line, wantLine, wantOK)
			}
		case tooLong:
			// In segments, a head that ends past the bound may outgrow it
			// before it completes.
			end := bytes.Index(data, headerEnd)
			if !wantLong && (end < 0 || end+len(headerEnd) <= maxRequestHead) {
				t.Fatalf("head rejected as too long in segments; whole: ok %v, head end %d", wantOK, end)
			}
		default:
			if len(data) > 0 && (wantOK || wantLong) {
				t.Fatalf("segments left the request open; whole: ok %v, too long %v", wantOK, wantLong)
			}
		}

		// The Content-Length and the body bytes, whole and in segments.
		wantLen, wantBody, wantHead := (&headBuffer{}).response(bytes.Clone(data))
		var resp headBuffer
		gotLen, gotBody, gotHead := 0, 0, false
		deliver(segs, func(d []byte) bool {
			if gotHead {
				gotBody += len(d)
			} else {
				gotLen, gotBody, gotHead = resp.response(d)
			}
			return true
		})
		if len(data) > 0 && (gotHead != wantHead || gotLen != wantLen || gotBody != wantBody) {
			t.Fatalf("in segments: head %v, Content-Length %d, body %d; whole: %v, %d, %d",
				gotHead, gotLen, gotBody, wantHead, wantLen, wantBody)
		}

		// The same segments through the callbacks of live connections.
		s, ch, sh := pair(t)
		srv := NewServer(ServerConfig{Seed: 1})
		if err := srv.Attach(sh); err != nil {
			t.Fatal(err)
		}
		var served *netstack.Conn
		srv.Listener().SetAccept(func(c *netstack.Conn) {
			srv.accept(c)
			served = c
		})
		conn := ch.DialTCP(sh.Addr(), DefaultPort)
		conn.OnData = func([]byte) {}
		s.Drain()
		if served == nil {
			t.Fatal("no connection accepted")
		}
		deliver(segs, func(d []byte) bool { served.OnData(d); return true })
		cl := NewClient(sh.Addr(), 0, 0, 7)
		cl.host = ch
		fetch := &fetch{client: cl, conn: conn}
		deliver(segs, func(d []byte) bool { fetch.onData(d); return true })
		s.Drain()
	})
}
