// Command oddci-node runs one node agent of a TCP OddCI deployment: it
// connects to a coordinator, verifies the signed wakeup, checks the
// image digest, and works the bag of tasks while heartbeating — the PNA
// role as a standalone process.
//
//	oddci-node -addr host:7070 -id 1 -timescale 100
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"

	"oddci/internal/span"
	"oddci/internal/stb"
	"oddci/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "coordinator address")
		id        = flag.Uint64("id", 1, "node id")
		timescale = flag.Float64("timescale", 1, "divide task durations (100 = 100× faster demo)")
		standby   = flag.Bool("standby", false, "device idle in standby (faster CPU)")
		keyHex    = flag.String("controller-key", "", "pin the coordinator's ed25519 public key (hex)")
		seed      = flag.Int64("seed", 1, "probability-gate seed")
		spanCap   = flag.Int("trace-spans", 1024, "local span ring capacity; a node with one stamps its span contexts onto requests and results so the coordinator can parent dispatch/commit spans under them (0 disables)")
	)
	flag.Parse()

	cfg := transport.NodeConfig{
		Addr:      *addr,
		NodeID:    *id,
		TimeScale: *timescale,
		Seed:      *seed,
	}
	if *spanCap > 0 {
		cfg.Spans = span.NewCollector(span.Config{Capacity: *spanCap, Seed: *seed})
	}
	if *standby {
		cfg.Mode = stb.Standby
	}
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			log.Fatalf("bad -controller-key: %v", err)
		}
		cfg.PinnedKey = key
	}
	report, err := transport.RunNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !report.Joined {
		fmt.Printf("node %d (%s): did not join (requirements or probability gate)\n", *id, report.Deployment)
		return
	}
	end := "done"
	if report.Reset {
		end = "reset by the controller"
	}
	fmt.Printf("node %d (%s): %s — %d tasks executed, %d heartbeats sent, %d image updates restaged\n",
		*id, report.Deployment, end, report.TasksDone, report.Heartbeats, report.Restages)
}
