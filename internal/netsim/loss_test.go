package netsim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"oddci/internal/simtime"
)

func TestBusPerSubscriberLoss(t *testing.T) {
	clk := simtime.NewSim(epoch)
	rng := rand.New(rand.NewSource(13))
	bus := NewBus(clk, BusConfig{RateBps: 0, DropProb: 0.3, Rng: rng})
	const subs = 400
	received := make([]int, subs)
	for i := 0; i < subs; i++ {
		i := i
		bus.Subscribe(func(p Packet) { received[i]++ })
	}
	const msgs = 50
	for m := 0; m < msgs; m++ {
		bus.Publish("c", m, 100)
	}
	clk.Wait()
	total := 0
	for _, r := range received {
		total += r
	}
	want := float64(subs*msgs) * 0.7
	got := float64(total)
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("delivered %d of %d with p_drop=0.3, want ≈%.0f", total, subs*msgs, want)
	}
	// Loss must be independent per subscriber: some spread expected.
	min, max := received[0], received[0]
	for _, r := range received[1:] {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min == max {
		t.Fatal("per-subscriber loss is not independent")
	}
}

func TestLinkLatencyOnly(t *testing.T) {
	clk := simtime.NewSim(epoch)
	dst := NewMailbox[Packet](clk)
	l := NewLink(clk, LinkConfig{Latency: 250 * time.Millisecond}, dst)
	l.Send(Packet{Payload: 1, Size: 1 << 20}) // infinite rate: pure latency
	clk.Wait()
	p, ok := dst.tryRecv()
	if !ok || !p.ArrivedAt.Equal(epoch.Add(250*time.Millisecond)) {
		t.Fatalf("arrival %v", p.ArrivedAt)
	}
}

func TestMailboxManyWaiters(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[int](clk)
	const readers = 20
	var mu sync.Mutex
	got := make([]int, 0, readers)
	for i := 0; i < readers; i++ {
		clk.Go(func() {
			v, err := m.Recv()
			if err == nil {
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
			}
		})
	}
	clk.AfterFunc(time.Second, func() {
		for i := 0; i < readers; i++ {
			m.Put(i)
		}
	})
	clk.Wait()
	if len(got) != readers {
		t.Fatalf("%d of %d readers served", len(got), readers)
	}
}
