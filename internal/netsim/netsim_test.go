package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func TestMailboxFIFO(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	for i := 0; i < 10; i++ {
		m.Put(Packet{Payload: i})
	}
	for i := 0; i < 10; i++ {
		p, ok := m.tryRecv()
		if !ok || p.Payload != i {
			t.Fatalf("tryRecv = %v,%v want %d,true", p.Payload, ok, i)
		}
	}
	if _, ok := m.tryRecv(); ok {
		t.Fatal("tryRecv on empty mailbox returned ok")
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	var got string
	var at time.Time
	clk.Go(func() {
		p, err := m.Recv()
		if err != nil {
			t.Errorf("Recv error: %v", err)
		}
		got, _ = p.Payload.(string)
		at = clk.Now()
	})
	clk.AfterFunc(5*time.Second, func() { m.Put(Packet{Payload: "hello"}) })
	clk.Wait()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if !at.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("received at %v, want epoch+5s", at)
	}
}

func TestMailboxClose(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	m.Put(Packet{Payload: 1})
	m.Close()
	p, err := m.Recv()
	if err != nil || p.Payload != 1 {
		t.Fatalf("Recv after close should drain queue first, got %v,%v", p.Payload, err)
	}
	if _, err := m.Recv(); err != ErrClosed {
		t.Fatalf("Recv on drained closed mailbox = %v, want ErrClosed", err)
	}
	var blockedErr error
	clk.Go(func() {
		m2 := newMailbox(clk)
		clk.AfterFunc(time.Second, m2.Close)
		_, blockedErr = m2.Recv()
	})
	clk.Wait()
	if blockedErr != ErrClosed {
		t.Fatalf("blocked Recv after Close = %v, want ErrClosed", blockedErr)
	}
}

func TestMailboxRecvTimeout(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	var err1 error
	var p2 Packet
	var err2 error
	clk.Go(func() {
		_, err1 = m.RecvTimeout(2 * time.Second) // nothing arrives: timeout at +2s
		clk.AfterFunc(time.Second, func() { m.Put(Packet{Payload: 42}) })
		p2, err2 = m.RecvTimeout(5 * time.Second) // arrives at +3s
	})
	clk.Wait()
	if err1 != ErrTimeout {
		t.Fatalf("first RecvTimeout = %v, want ErrTimeout", err1)
	}
	if err2 != nil || p2.Payload != 42 {
		t.Fatalf("second RecvTimeout = %v,%v want 42,nil", p2.Payload, err2)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := newMailbox(clk)
	// 1 Mbps, 100ms latency: 125000 bytes take 1s on the wire.
	l := newLink(clk, LinkConfig{RateBps: 1e6, Latency: 100 * time.Millisecond}, dst)
	l.Send(Packet{Payload: "a", Size: 125000})
	_, arrivals := recvAll(clk, dst, 1)
	want := epoch.Add(1*time.Second + 100*time.Millisecond)
	if len(arrivals) != 1 || !arrivals[0].Equal(want) {
		t.Fatalf("arrived at %v, want %v", arrivals, want)
	}
}

func TestLinkBackToBackSerializes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := newMailbox(clk)
	l := newLink(clk, LinkConfig{RateBps: 8e6}, dst) // 1 MB/s
	for i := 0; i < 3; i++ {
		l.Send(Packet{Payload: i, Size: 1 << 20}) // 1 MiB each
	}
	_, arrivals := recvAll(clk, dst, 3)
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(arrivals))
	}
	per := serialization(1<<20, 8e6)
	for i, a := range arrivals {
		want := epoch.Add(time.Duration(i+1) * per)
		if !a.Equal(want) {
			t.Fatalf("packet %d arrived %v, want %v (strict serialization)", i, a, want)
		}
	}
}

func TestLinkLoss(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := newMailbox(clk)
	rng := rand.New(rand.NewSource(7))
	l := newLink(clk, LinkConfig{RateBps: 0, dropProb: 0.5, rng: rng}, dst)
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(Packet{Size: 10})
	}
	clk.Wait()
	got := dst.len()
	if got < n/2-150 || got > n/2+150 {
		t.Fatalf("delivered %d of %d with p=0.5; outside tolerance", got, n)
	}
}

func TestDuplexRoundTrip(t *testing.T) {
	clk := simtime.NewSim(epoch)
	cfg := LinkConfig{RateBps: 150e3, Latency: 50 * time.Millisecond} // δ=150 kbps
	a, b := NewDuplex(clk, "stb", "backend", cfg, cfg)
	var rtt time.Duration
	clk.Go(func() { // server
		p, err := b.Recv()
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		b.Send(p.From, "resp", 1024)
	})
	clk.Go(func() { // client
		start := clk.Now()
		a.Send("backend", "req", 1024)
		if _, err := a.Recv(); err != nil {
			t.Errorf("client recv: %v", err)
			return
		}
		rtt = clk.Now().Sub(start)
	})
	clk.Wait()
	// Each direction: 1024B at 150kbps = 54.6ms + 50ms latency.
	oneWay := serialization(1024, 150e3) + 50*time.Millisecond
	want := 2 * oneWay
	if rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

func TestBusReachesAllSubscribers(t *testing.T) {
	clk := simtime.NewSim(epoch)
	bus := NewBus(clk, BusConfig{RateBps: 1e6})
	const n = 500
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		bus.Subscribe(func(p Packet) { got[i]++ })
	}
	bus.Publish("controller", "wakeup", 125000) // 1s at 1 Mbps
	clk.Wait()
	for i, c := range got {
		if c != 1 {
			t.Fatalf("subscriber %d received %d packets, want 1", i, c)
		}
	}
}

func TestBusDeliveryTimeIndependentOfN(t *testing.T) {
	arrival := func(n int) time.Time {
		clk := simtime.NewSim(epoch)
		bus := NewBus(clk, BusConfig{RateBps: 1e6})
		var at time.Time
		for i := 0; i < n; i++ {
			bus.Subscribe(func(Packet) { at = clk.Now() })
		}
		bus.Publish("c", "img", 1<<20)
		clk.Wait()
		return at
	}
	if a1, a2 := arrival(1), arrival(10000); !a1.Equal(a2) {
		t.Fatalf("broadcast arrival depends on N: %v vs %v", a1, a2)
	}
}

func TestBusSerializesTransmissions(t *testing.T) {
	clk := simtime.NewSim(epoch)
	bus := NewBus(clk, BusConfig{RateBps: 8e6})
	var arrivals []time.Time
	bus.Subscribe(func(Packet) { arrivals = append(arrivals, clk.Now()) })
	bus.Publish("c", "m1", 1<<20)
	bus.Publish("c", "m2", 1<<20)
	clk.Wait()
	per := serialization(1<<20, 8e6)
	if len(arrivals) != 2 || !arrivals[1].Equal(epoch.Add(2*per)) {
		t.Fatalf("arrivals %v, want second at epoch+%v", arrivals, 2*per)
	}
}

// Property: serialization delay is additive and proportional to size.
func TestSerializationProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		rate := 1e6
		da := serialization(int(a), rate)
		db := serialization(int(b), rate)
		dab := serialization(int(a)+int(b), rate)
		diff := dab - da - db
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond // rounding tolerance
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationZeroRateInstant(t *testing.T) {
	if serialization(1<<30, 0) != 0 {
		t.Fatal("zero rate should mean infinite capacity")
	}
}

// TestLinkSameInstantInSendOrder: packets that arrive at one instant
// leave the link's in-flight ring in the order they were sent.
func TestLinkSameInstantInSendOrder(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := newMailbox(clk)
	l := newLink(clk, LinkConfig{Latency: time.Second}, dst)
	const n = 20
	for i := 0; i < n; i++ {
		l.Send(Packet{Payload: i, Size: 100})
	}
	ps, arrivals := recvAll(clk, dst, n)
	if len(ps) != n {
		t.Fatalf("%d of %d packets delivered", len(ps), n)
	}
	for i, p := range ps {
		if p.Payload != i || !arrivals[i].Equal(epoch.Add(time.Second)) {
			t.Fatalf("delivery %d: payload %v at %v, want %d at epoch+1s", i, p.Payload, arrivals[i], i)
		}
	}
}

// TestBusDeliveryRepeats: at a fixed seed, which subscribers a lossy
// publish reaches, and in what order, is the same on every run.
func TestBusDeliveryRepeats(t *testing.T) {
	run := func() []int {
		clk := simtime.NewSim(epoch)
		bus := NewBus(clk, BusConfig{dropProb: 0.5, rng: rand.New(rand.NewSource(1))})
		var got []int
		for i := 0; i < 16; i++ {
			i := i
			bus.Subscribe(func(Packet) { got = append(got, i) })
		}
		bus.Publish("c", nil, 100)
		clk.Wait()
		return got
	}
	first := run()
	for r := 0; r < 5; r++ {
		if again := run(); !slices.Equal(again, first) {
			t.Fatalf("run %d delivered to %v, first run to %v", r+2, again, first)
		}
	}
	if !slices.IsSorted(first) {
		t.Fatalf("delivered to %v, want subscription order", first)
	}
}

// TestLinkHopAllocs holds one Link.Send → mailbox Recv hop inside an
// actor to no allocation: the arrival event and the receiver's parker
// come off the clock's free lists, the packet waits in the link's ring
// and the mailbox's, and the mailbox's Cond lists its lone waiter in an
// array it holds inline.
func TestLinkHopAllocs(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := newMailbox(clk)
	l := newLink(clk, LinkConfig{RateBps: 1e6, Latency: time.Millisecond}, dst)
	payload := new(int)
	var allocs float64
	clk.Go(func() {
		allocs = testing.AllocsPerRun(100, func() {
			l.Send(Packet{From: "a", Payload: payload, Size: 188})
			if p, err := dst.Recv(); err != nil || p.Payload != payload {
				t.Errorf("Recv = %v, %v", p.Payload, err)
			}
		})
	})
	clk.Wait()
	t.Logf("%.1f allocations per hop", allocs)
	if allocs != 0 {
		t.Fatalf("a hop allocates %.1f objects, want 0", allocs)
	}
}

// TestNewDuplexAllocs holds what a channel costs to set up: two
// Endpoints, each holding its mailbox inline, and two Links with their
// bound delivery funcs. A mailbox of its own or a func bound per
// mailbox or per Cond adds two.
func TestNewDuplexAllocs(t *testing.T) {
	clk := simtime.NewSim(epoch)
	cfg := LinkConfig{RateBps: 1e6, Latency: time.Millisecond}
	allocs := testing.AllocsPerRun(100, func() { NewDuplex(clk, "a", "b", cfg, cfg) })
	t.Logf("%.1f allocations per duplex", allocs)
	if allocs > 6 {
		t.Fatalf("NewDuplex allocates %.1f objects, want <= 6", allocs)
	}
}
