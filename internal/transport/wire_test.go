package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"oddci/internal/appimage"
)

// rawPeer is a test-side node that speaks the wire directly, so a test
// controls exactly which frames the coordinator sees.
type rawPeer struct {
	conn   net.Conn
	fr     *FrameReader
	banner Banner
}

// dialRaw connects, reads the banner and sends hello.
func dialRaw(addr string, hello any) (*rawPeer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &rawPeer{conn: conn, fr: NewFrameReader(conn)}
	typ, payload, err := p.fr.Next()
	if err == nil && typ != FrameBanner {
		err = fmt.Errorf("first frame type %d, want banner", typ)
	}
	if err == nil {
		err = json.Unmarshal(payload, &p.banner)
	}
	if err == nil {
		var raw []byte
		if raw, err = json.Marshal(&hello); err == nil {
			err = writeFrame(conn, FrameHello, raw)
		}
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *rawPeer) Close() {
	p.fr.Close()
	p.conn.Close()
}

// fakeCoordinator serves one session from a peer the test scripts: it
// writes banner, waits for the hello, writes frames (complete frames,
// concatenated), then reads until the node hangs up.
func fakeCoordinator(t *testing.T, banner any, frames []byte) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		raw, _ := json.Marshal(banner)
		if writeFrame(conn, FrameBanner, raw) != nil {
			return
		}
		if _, _, err := readFrame(conn); err != nil {
			return
		}
		conn.Write(frames)
		for {
			if _, _, err := readFrame(conn); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWireVersionMismatch is the one interop test: each side refuses a
// peer of another wire version at the handshake, before anything is
// staged.
func TestWireVersionMismatch(t *testing.T) {
	// A v1 coordinator's banner has no wire field; a v2 one says 2.
	for wire, banner := range map[int]any{
		1: map[string]any{"controller_key": make([]byte, 32), "name": "v1"},
		2: Banner{Wire: 2, ControllerKey: make([]byte, 32), Name: "v2"},
	} {
		rep, err := RunNode(NodeConfig{Addr: fakeCoordinator(t, banner, nil), NodeID: 1})
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("node against a v%d banner: err = %v, want ErrWireVersion", wire, err)
		}
		if rep.Joined {
			t.Fatalf("node joined a v%d coordinator", wire)
		}
	}

	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage()})
	// A v1 node's hello has no wire field either, and a v2 node's says 2:
	// each gets the banner (which names the version) and then the
	// connection, nothing staged.
	for wire, hello := range map[int]Hello{1: {NodeID: 7}, 2: {Wire: 2, NodeID: 8}} {
		p, err := dialRaw(coord.Addr(), hello)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.banner.Wire != WireVersion {
			t.Fatalf("banner wire = %d, want %d", p.banner.Wire, WireVersion)
		}
		p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if typ, _, err := p.fr.Next(); err == nil {
			t.Fatalf("v%d hello was answered with frame type %d, want the session dropped", wire, typ)
		}
	}
	if coord.NodeCount() != 0 {
		t.Fatalf("an old hello was counted as a node (NodeCount = %d)", coord.NodeCount())
	}
}

// TestHelloWithDeviceFieldsAccepted: nodes of wire 3 once sent their
// device profile in the hello too. A coordinator reads that hello as it
// reads the one without, so the two vintages interoperate with no
// version bump: the profile reaches the Controller in heartbeats.
func TestHelloWithDeviceFieldsAccepted(t *testing.T) {
	raw, err := os.ReadFile("testdata/hello_wire3_profile.json")
	if err != nil {
		t.Fatal(err)
	}
	var h Hello
	if err := json.Unmarshal(raw, &h); err != nil || h != (Hello{Wire: WireVersion, NodeID: 7}) {
		t.Fatalf("hello %s decodes to %+v, %v", raw, h, err)
	}
	if b, _ := json.Marshal(&h); string(b) != `{"wire":3,"node_id":7}` {
		t.Fatalf("hello encodes to %s", b)
	}
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage()})
	p, err := dialRaw(coord.Addr(), json.RawMessage(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := p.fr.Next(); err != nil || typ != FrameControl {
		t.Fatalf("first staged frame: type %d, %v; want the control file", typ, err)
	}
	if coord.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d, want 1", coord.NodeCount())
	}
}

// stageOnly connects, completes the hello/broadcast exchange, and
// disconnects without requesting work. It returns the number of
// broadcast frame bytes received.
func stageOnly(addr string, nodeID uint64) (int, error) {
	p, err := dialRaw(addr, Hello{Wire: WireVersion, NodeID: nodeID})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	got, want, size := 0, -1, 0
	for want != 0 {
		typ, payload, err := p.fr.Next()
		if err != nil {
			return 0, fmt.Errorf("staging read: %w", err)
		}
		got += 5 + len(payload)
		switch typ {
		case FrameImageManifest:
			_, n, ds, err := DecodeImageManifest(payload)
			if err != nil {
				return 0, err
			}
			distinct := map[appimage.Digest]bool{}
			for _, d := range ds {
				distinct[d] = true
			}
			want, size = len(distinct), n
		case FrameImageChunk:
			want--
		}
	}
	if size == 0 {
		return 0, errors.New("empty staged image")
	}
	return got, nil
}

// TestLargeImageEncodeOnce stages a multi-MB image to N concurrent
// sessions and asserts the coordinator-side encode counter stays at
// its construction value — the paper's O(1)-in-N broadcast invariant,
// enforced on the TCP path.
func TestLargeImageEncodeOnce(t *testing.T) {
	img := chunkedImage(t, 30, 3<<20)
	coord := serveCoordinator(t, CoordinatorConfig{
		Image: img,
	})

	encodesBefore := coord.BroadcastEncodes()
	if encodesBefore == 0 {
		t.Fatal("no broadcast encodes recorded at construction")
	}
	const nodes = 8
	var wg sync.WaitGroup
	gotBytes := make([]int, nodes)
	stageErrs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotBytes[i], stageErrs[i] = stageOnly(coord.Addr(), uint64(i+1))
		}()
	}
	wg.Wait()
	for i, err := range stageErrs {
		if err != nil {
			t.Fatalf("stage %d: %v", i+1, err)
		}
	}
	if coord.BroadcastEncodes() != encodesBefore {
		t.Fatalf("staging %d sessions re-encoded the broadcast: %d -> %d encodes",
			nodes, encodesBefore, coord.BroadcastEncodes())
	}
	if coord.NodeCount() != nodes {
		t.Fatalf("NodeCount = %d, want %d", coord.NodeCount(), nodes)
	}
	for i, n := range gotBytes {
		if n < 3<<20 || n != coord.broadcastBytes() {
			t.Fatalf("node %d received %d staged bytes, want broadcastBytes = %d (at least the image size)",
				i+1, n, coord.broadcastBytes())
		}
	}
}
