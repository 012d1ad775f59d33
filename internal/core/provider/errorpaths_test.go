package provider

import (
	"testing"

	"oddci/internal/appimage"
	"oddci/internal/control"
)

func TestProviderRecomposeAndRebind(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	inst, err := p.Create(spec())
	if err != nil {
		t.Fatal(err)
	}
	// Feed one member so the instance is observably live.
	ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: 7, State: control.StateBusy, InstanceID: inst.ID(),
		SentAt: clk.Now(),
	})
	v2 := &appimage.Image{Name: "a", Version: 2, EntryPoint: "e", Payload: []byte{2}}
	if err := inst.Recompose(v2); err != nil {
		t.Fatal(err)
	}
	st, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Wakeups != 2 || st.Busy != 1 {
		t.Fatalf("status after recompose: %+v", st)
	}
	// Rebind keeps the handle working against a replacement Controller
	// of the same lineage (here: the same one, the minimal contract).
	p.Rebind(ctrl)
	if inst.Destroyed() {
		t.Fatal("handle reports destroyed")
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Recompose(v2); err == nil {
		t.Fatal("recompose after destroy accepted")
	}
	ctrl.Stop()
	clk.Wait()
}
