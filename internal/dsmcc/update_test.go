package dsmcc_test

import (
	"fmt"
	"testing"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/flute"
	"oddci/internal/simtime"
)

// Update refuses a content set the carrier cannot air, at the call and
// for either wire layout; what was on air stays on air. A set that got
// past Update used to fail in commit, on the clock's event loop, one
// cycle later ("layout of committed update failed: empty carousel").
func TestUpdateRejectsInvalidContent(t *testing.T) {
	epoch := time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)
	// Enough long names that the DSM-CC directory outgrows its one
	// section; a flute session has no directory and takes them.
	var crowd []dsmcc.File
	for i := 0; i < 40; i++ {
		crowd = append(crowd, dsmcc.File{Name: fmt.Sprintf("%0200d", i)})
	}
	layouts := []struct {
		name      string
		content   func() dsmcc.Content
		crowdFits bool
	}{
		{"dsmcc", func() dsmcc.Content { c, _ := dsmcc.NewCarousel(0x300, 0); return c }, false},
		{"flute", func() dsmcc.Content { return flute.NewSession() }, true},
	}
	sets := []struct {
		name  string
		files []dsmcc.File
	}{
		{"empty set", nil},
		{"empty name", []dsmcc.File{{Name: "", Data: []byte{1}}}},
		{"duplicate name", []dsmcc.File{{Name: "x"}, {Name: "x"}}},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			clk := simtime.NewSim(epoch)
			b, err := dsmcc.NewBroadcaster(clk, l.content(), 1e6)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Start([]dsmcc.File{{Name: "a", Data: make([]byte, 10000)}}); err != nil {
				t.Fatal(err)
			}
			commits := 0
			b.OnGeneration(func(uint32, time.Time) { commits++ })
			clk.Go(func() {
				for _, s := range sets {
					if err := b.Update(s.files); err == nil {
						t.Errorf("%s accepted", s.name)
					}
				}
				if err := b.Update(crowd); (err == nil) != l.crowdFits {
					t.Errorf("%d 200-byte names: err = %v, fits = %v", len(crowd), err, l.crowdFits)
				}
				// Well past the boundary a queued update would commit at.
				clk.Sleep(3 * b.CycleDuration())
			})
			clk.Wait()
			want := 0
			if l.crowdFits {
				want = 1
			}
			if commits != want {
				t.Fatalf("%d commits, want %d", commits, want)
			}
			if !l.crowdFits && b.Generation() != 1 {
				t.Fatalf("generation %d on air, want the started one", b.Generation())
			}
		})
	}
}
