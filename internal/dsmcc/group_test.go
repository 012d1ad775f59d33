package dsmcc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// hashRead is a read whose check hashes what it is handed and compares
// the sum with want, the way a node checks an image against a signed
// digest.
type hashRead struct {
	want   [sha256.Size]byte
	clk    simtime.Clock // observed by the check here, never by a real one
	checks atomic.Int32

	checked   []byte    // the bytes the last check ran over
	checkedAt time.Time // virtual time when that check began
	verdict   error

	deliver func(r *hashRead, data []byte, at time.Time, err error)
}

func (r *hashRead) Check(data []byte) {
	r.checks.Add(1)
	r.checked, r.checkedAt = data, r.clk.Now()
	r.verdict = nil
	if sha256.Sum256(data) != r.want {
		r.verdict = errors.New("digest mismatch")
	}
}

func (r *hashRead) Deliver(data []byte, at time.Time, err error) { r.deliver(r, data, at, err) }

// Reads of one file that complete at one instant each get their own
// verdict, in booking order, on any core count: one failing check in
// the group fails that read alone, every check runs exactly once, and
// each over the slice its delivery hands over.
func TestGroupVerdictsInBookingOrder(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := randBytes(rand.New(rand.NewSource(3)), 256<<10)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img})
	sum := sha256.Sum256(img)
	const n, failing = 16, 11

	var order []int
	reads := make([]*hashRead, n)
	for i := range reads {
		want := sum
		if i == failing {
			want[0] ^= 1 // this node was signed another image
		}
		reads[i] = &hashRead{want: want, clk: clk, deliver: func(r *hashRead, data []byte, _ time.Time, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			if !sameSlice(r.checked, data) {
				t.Errorf("read %d: checked other bytes than it was handed", i)
			}
			if (r.verdict != nil) != (i == failing) {
				t.Errorf("read %d: verdict %v", i, r.verdict)
			}
			order = append(order, i)
		}}
		b.RequestFile("image", FileGranularity, nil, reads[i])
	}
	clk.Wait()
	if fmt.Sprint(order) != fmt.Sprint([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Fatalf("delivered in order %v, want booking order", order)
	}
	for i, r := range reads {
		if c := r.checks.Load(); c != 1 {
			t.Fatalf("read %d checked %d times", i, c)
		}
	}
}

// A version bump between booking and firing discards a check a helper
// ran on the old bytes. The image is the carousel's last module, so
// reads tuned at phase 0 complete at the cycle boundary where an update
// commits: those booked before the update fire ahead of the commit and
// get the old bytes; those booked after it fire behind the commit,
// restart on the new version, and are checked again over the new bytes
// they are handed. An update to equal bytes in another slice keeps the
// version, so those reads are delivered at the boundary, but from the
// new slice, and that is the slice checked.
func TestGroupVersionBumpRechecksNewBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	oldImg, newImg := randBytes(rng, 256<<10), randBytes(rng, 256<<10)
	for _, tc := range []struct {
		name    string
		next    []byte
		restart bool
	}{
		{"new bytes", newImg, true},
		{"same bytes, new slice", bytes.Clone(oldImg), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simtime.NewSim(epoch)
			b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: oldImg})
			if e, _ := b.Layout().Entry("image"); e.WireEnd != b.Layout().CycleWire {
				t.Fatalf("image ends at %d, cycle at %d: not the last module", e.WireEnd, b.Layout().CycleWire)
			}
			boundary := epoch.Add(b.CycleDuration())
			book := func(n int, img []byte, at time.Time) []*hashRead {
				reads := make([]*hashRead, n)
				for i := range reads {
					reads[i] = &hashRead{want: sha256.Sum256(img), clk: clk, deliver: func(r *hashRead, data []byte, when time.Time, err error) {
						switch {
						case err != nil:
							t.Errorf("read: %v", err)
						case !sameSlice(data, img) || !sameSlice(r.checked, data):
							t.Errorf("handed %d bytes, checked %d others", len(data), len(r.checked))
						case r.verdict != nil:
							t.Errorf("verdict %v over the bytes delivered", r.verdict)
						case !when.Equal(at):
							t.Errorf("delivered at %v, want %v", when, at)
						}
					}}
					b.RequestFile("image", FileGranularity, nil, reads[i])
				}
				return reads
			}
			before := book(4, oldImg, boundary)
			if err := b.Update([]File{{Name: "image", Data: tc.next}}); err != nil {
				t.Fatal(err)
			}
			at := boundary
			if tc.restart {
				at = at.Add(b.CycleDuration()) // on the new cycle, one module later
			}
			after := book(8, tc.next, at)
			clk.Wait()
			for _, r := range before {
				if c := r.checks.Load(); c != 1 {
					t.Fatalf("read before the update checked %d times, want 1", c)
				}
			}
			for _, r := range after {
				if c := r.checks.Load(); c < 1 || c > 2 {
					t.Fatalf("read after the update checked %d times, want 1 or 2", c)
				}
			}
		})
	}
}

// No check starts before its delivery's virtual instant, for reads of
// several groups at several instants, cached or not.
func TestGroupCheckNeverBeforeDelivery(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := randBytes(rand.New(rand.NewSource(5)), 128<<10)
	b := startBroadcaster(t, clk, 1e6, File{Name: "conf", Data: []byte("c")}, File{Name: "image", Data: img})
	sum := sha256.Sum256(img)
	warm := NewChunkCache(1 << 20)
	warm.Put(HashOf(img), bytes.Clone(img))
	cycle := b.CycleDuration()

	delivered := 0
	var reads []*hashRead
	for k := 0; k < 3; k++ {
		tune := time.Duration(k) * cycle / 3
		for i := 0; i < 6; i++ {
			r := &hashRead{want: sum, clk: clk, deliver: func(r *hashRead, _ []byte, at time.Time, err error) {
				if err != nil || r.verdict != nil {
					t.Errorf("read: %v, verdict %v", err, r.verdict)
				}
				if r.checkedAt.Before(at) {
					t.Errorf("checked at %v, before its delivery at %v", r.checkedAt, at)
				}
				delivered++
			}}
			reads = append(reads, r)
			cache := warm
			if i%2 == 0 {
				cache = nil
			}
			clk.AfterFunc(tune, func() { b.RequestFile("image", FileGranularity, cache, r) })
		}
	}
	clk.Wait()
	if delivered != len(reads) {
		t.Fatalf("%d of %d reads delivered", delivered, len(reads))
	}
}
