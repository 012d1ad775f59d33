package xlet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLifecycleHappyPath(t *testing.T) {
	var l Lifecycle
	steps := []State{Paused, Started, Paused, Started, Destroyed}
	for _, s := range steps {
		if err := l.To(s); err != nil {
			t.Fatalf("transition to %v: %v", s, err)
		}
	}
	if l.State() != Destroyed {
		t.Fatalf("final state %v", l.State())
	}
}

func TestLifecycleIllegalMoves(t *testing.T) {
	cases := []struct {
		from, to State
	}{
		{Loaded, Started},   // must init first
		{Loaded, Loaded},    // no self-loop
		{Paused, Loaded},    // cannot unload
		{Started, Started},  // no self-loop
		{Started, Loaded},   // cannot unload
		{Destroyed, Loaded}, // terminal
		{Destroyed, Paused},
		{Destroyed, Started},
		{Destroyed, Destroyed},
	}
	for _, c := range cases {
		l := Lifecycle{state: c.from}
		if err := l.To(c.to); err == nil {
			t.Errorf("%v → %v allowed", c.from, c.to)
		}
		if l.State() != c.from {
			t.Errorf("failed transition mutated state to %v", l.State())
		}
	}
}

func TestDestroyFromAnyLiveState(t *testing.T) {
	for _, from := range []State{Loaded, Paused, Started} {
		l := Lifecycle{state: from}
		if err := l.To(Destroyed); err != nil {
			t.Errorf("destroy from %v: %v", from, err)
		}
	}
}

// Property: a random walk through To() can never leave Destroyed, and
// every accepted transition matches legal.
func TestLifecycleWalkProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var l Lifecycle
		for i := 0; i < int(steps); i++ {
			from := l.State()
			to := State(rng.Intn(4))
			err := l.To(to)
			if (err == nil) != legal(from, to) {
				return false
			}
			if err != nil && l.State() != from {
				return false
			}
			if from == Destroyed && l.State() != Destroyed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Loaded: "Loaded", Paused: "Paused", Started: "Started", Destroyed: "Destroyed"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
