package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func TestMailboxFIFO(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[int](clk)
	for i := 0; i < 10; i++ {
		m.Put(i)
	}
	for i := 0; i < 10; i++ {
		v, ok := m.tryRecv()
		if !ok || v != i {
			t.Fatalf("tryRecv = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := m.tryRecv(); ok {
		t.Fatal("tryRecv on empty mailbox returned ok")
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[string](clk)
	var got string
	var at time.Time
	clk.Go(func() {
		v, err := m.Recv()
		if err != nil {
			t.Errorf("Recv error: %v", err)
		}
		got, at = v, clk.Now()
	})
	clk.AfterFunc(5*time.Second, func() { m.Put("hello") })
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
	m := NewMailbox[int](clk)
	m.Put(1)
	m.Close()
	v, err := m.Recv()
	if err != nil || v != 1 {
		t.Fatalf("Recv after close should drain queue first, got %v,%v", v, err)
	}
	if _, err := m.Recv(); err != ErrClosed {
		t.Fatalf("Recv on drained closed mailbox = %v, want ErrClosed", err)
	}
	var blockedErr error
	clk.Go(func() {
		m2 := NewMailbox[int](clk)
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
	m := NewMailbox[int](clk)
	var err1 error
	var v2 int
	var err2 error
	clk.Go(func() {
		_, err1 = m.RecvTimeout(2 * time.Second) // nothing arrives: timeout at +2s
		clk.AfterFunc(time.Second, func() { m.Put(42) })
		v2, err2 = m.RecvTimeout(5 * time.Second) // arrives at +3s
	})
	clk.Wait()
	if err1 != ErrTimeout {
		t.Fatalf("first RecvTimeout = %v, want ErrTimeout", err1)
	}
	if err2 != nil || v2 != 42 {
		t.Fatalf("second RecvTimeout = %d,%v want 42,nil", v2, err2)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := NewMailbox[Packet](clk)
	// 1 Mbps, 100ms latency: 125000 bytes take 1s on the wire.
	l := NewLink(clk, LinkConfig{RateBps: 1e6, Latency: 100 * time.Millisecond}, dst)
	l.Send(Packet{Payload: "a", Size: 125000})
	clk.Wait()
	p, ok := dst.tryRecv()
	if !ok {
		t.Fatal("packet not delivered")
	}
	want := epoch.Add(1*time.Second + 100*time.Millisecond)
	if !p.ArrivedAt.Equal(want) {
		t.Fatalf("arrived at %v, want %v", p.ArrivedAt, want)
	}
}

func TestLinkBackToBackSerializes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := NewMailbox[Packet](clk)
	l := NewLink(clk, LinkConfig{RateBps: 8e6}, dst) // 1 MB/s
	for i := 0; i < 3; i++ {
		l.Send(Packet{Payload: i, Size: 1 << 20}) // 1 MiB each
	}
	clk.Wait()
	var arrivals []time.Time
	for {
		p, ok := dst.tryRecv()
		if !ok {
			break
		}
		arrivals = append(arrivals, p.ArrivedAt)
	}
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
	dst := NewMailbox[Packet](clk)
	rng := rand.New(rand.NewSource(7))
	l := NewLink(clk, LinkConfig{RateBps: 0, DropProb: 0.5, Rng: rng}, dst)
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(Packet{Size: 10})
	}
	clk.Wait()
	sent, dropped, _ := l.Stats()
	if sent != n {
		t.Fatalf("sent %d, want %d", sent, n)
	}
	got := dst.Len()
	if got+int(dropped) != n {
		t.Fatalf("delivered %d + dropped %d != %d", got, dropped, n)
	}
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
			bus.Subscribe(func(p Packet) { at = p.ArrivedAt })
		}
		bus.Publish("c", "img", 1<<20)
		clk.Wait()
		return at
	}
	if a1, a2 := arrival(1), arrival(10000); !a1.Equal(a2) {
		t.Fatalf("broadcast arrival depends on N: %v vs %v", a1, a2)
	}
}

func TestBusUnsubscribe(t *testing.T) {
	clk := simtime.NewSim(epoch)
	bus := NewBus(clk, BusConfig{})
	count := 0
	sub := bus.Subscribe(func(p Packet) { count++ })
	bus.Publish("c", 1, 10)
	clk.Wait()
	sub.Cancel()
	bus.Publish("c", 2, 10)
	clk.Wait()
	if count != 1 {
		t.Fatalf("received %d packets, want 1 (unsubscribed before second)", count)
	}
	bus.mu.Lock()
	subs := len(bus.subs)
	bus.mu.Unlock()
	if subs != 0 {
		t.Fatalf("subscribers = %d, want 0", subs)
	}
}

func TestBusSerializesTransmissions(t *testing.T) {
	clk := simtime.NewSim(epoch)
	bus := NewBus(clk, BusConfig{RateBps: 8e6})
	var arrivals []time.Time
	bus.Subscribe(func(p Packet) { arrivals = append(arrivals, p.ArrivedAt) })
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
