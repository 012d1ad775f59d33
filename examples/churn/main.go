// Churn: set-top boxes power-cycle at the viewer's whim while the
// Controller keeps an OddCI instance at its target size by expiring
// silent members and retransmitting wakeup messages — §3.2's
// recomposition loop, visualized as a timeline.
package main

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"oddci"
)

func main() {
	const (
		nodes  = 100
		target = 50
	)
	sys, err := oddci.New(oddci.Options{
		Nodes:             nodes,
		Seed:              11,
		HeartbeatPeriod:   20 * time.Second,
		MaintenancePeriod: 30 * time.Second,
		SpanCapacity:      1 << 14,
		Metrics:           true,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Evening-TV churn: ~25 minutes on, ~5 minutes off.
	for _, box := range sys.STBs() {
		if err := box.StartChurn(25*time.Minute, 5*time.Minute); err != nil {
			log.Fatal(err)
		}
	}
	inst, err := sys.CreateInstance(oddci.InstanceSpec{
		Image:              oddci.WorkerImage(512 << 10),
		Target:             target,
		InitialProbability: float64(target) / nodes * 1.2,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%6s  %9s  %9s  %9s  %s\n", "minute", "live size", "ctrl view", "powered", "state")
	for m := 2; m <= 48; m += 2 {
		m := m
		sys.After(time.Duration(m)*time.Minute, func() {
			powered := 0
			for _, box := range sys.STBs() {
				if box.Powered() {
					powered++
				}
			}
			live := sys.LiveBusy(uint64(inst.ID()))
			st, err := inst.Status()
			switch {
			case errors.Is(err, oddci.ErrInstanceGone):
				fmt.Printf("%6d  %9d  %9s  %9d  garbage-collected\n", m, live, "-", powered)
			case err != nil:
				fmt.Printf("%6d  %9d  %9s  %9d  %v\n", m, live, "-", powered, err)
			case st.Destroyed:
				fmt.Printf("%6d  %9d  %9d  %9d  destroyed (reset on air)\n", m, live, st.Busy, powered)
			default:
				fmt.Printf("%6d  %9d  %9d  %9d  live, %d wakeup broadcasts\n",
					m, live, st.Busy, powered, st.Wakeups)
			}
		})
	}
	// Dismantle near the end: the reset stays on air for the
	// retransmission window, then the instance is GC'd and the carousel
	// returns to its baseline content.
	sys.After(42*time.Minute, func() {
		if err := inst.Destroy(); err != nil {
			log.Fatal(err)
		}
	})
	sys.After(49*time.Minute, sys.Shutdown)
	sys.Wait()

	fmt.Printf("\ninstance lifecycle timeline:\n")
	var t0 time.Time
	for _, ev := range sys.Spans().Timeline() {
		if slices.Contains([]string{"create", "destroy", "gc", "refresh-retry", "refresh-ok"}, ev.Name) {
			if t0.IsZero() {
				t0 = ev.Start
			}
			fmt.Printf("%9s  %-9s  %s\n", ev.Start.Sub(t0).Truncate(time.Second), ev.Name, ev.Detail)
		}
	}
	bytes, files, liveInst, onAir := sys.ContentStats()
	fmt.Printf("\nhead-end after teardown: control file %d B, %d carousel files, %d live, %d resets on air\n",
		bytes, files, liveInst, onAir)

	fmt.Printf("\nfinal telemetry snapshot:\n")
	for _, name := range []string{
		"oddci_controller_heartbeats_total",
		"oddci_controller_wakeups_total",
		"oddci_controller_nodes_expired_total",
		"oddci_controller_instances_gced_total",
		"oddci_pna_joins_total",
		"oddci_pna_resets_total",
		"oddci_dsmcc_broadcast_bytes",
	} {
		if v, ok := sys.Metric(name); ok {
			fmt.Printf("  %-42s %12.0f\n", name, v)
		}
	}

	var jsonl strings.Builder
	if err := sys.WriteTimelineJSONL(&jsonl); err != nil {
		log.Fatal(err)
	}
	lines := strings.Count(jsonl.String(), "\n")
	fmt.Printf("\ntimeline export: %d JSONL events, e.g.\n  %s\n",
		lines, strings.SplitN(jsonl.String(), "\n", 2)[0])
	fmt.Printf("instance held near %d nodes despite continuous power cycling, then drained to nothing\n", target)
}
