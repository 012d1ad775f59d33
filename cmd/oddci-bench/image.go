package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"bytes"

	"oddci/internal/appimage"
	"oddci/internal/dsmcc"
	"oddci/internal/obs"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// The image sweep gates the content-addressed delta distribution path
// end to end:
//
//   - dsmcc: a 16-module × 64 KiB carousel re-airs 1/16, 1/4 and full
//     deltas; the delta wire cost must stay within 1.25× the changed
//     payload bytes (TS packetization plus the directory are the only
//     overhead), a cache-warm receiver must converge from the delta
//     alone, and a hash-unaware legacy receiver must still converge
//     from full cycles under injected section loss.
//   - transport: staging encodes must be flat in the session count, and
//     an UpdateImage must cost exactly the two per-update artifacts
//     (control, manifest) plus the changed chunk frames — identically
//     at 1 and 16 sessions.

const (
	imageBenchModules    = 16
	imageBenchModuleSize = 64 << 10
)

type imageDeltaRow struct {
	ChangedModules int     `json:"changed_modules"`
	ChangedBytes   int64   `json:"changed_bytes"`
	DeltaWireBytes int64   `json:"delta_wire_bytes"`
	FullWireBytes  int64   `json:"full_wire_bytes"`
	Ratio          float64 `json:"ratio"`
	Savings        float64 `json:"savings"`
	WarmConverged  bool    `json:"warm_converged"`
	CacheHits      int64   `json:"cache_hits"`
	LegacyCycles   int     `json:"legacy_cycles_under_loss"`
}

type imageStageRow struct {
	Sessions      int   `json:"sessions"`
	JoinEncodes   int64 `json:"join_encodes"`
	UpdateEncodes int64 `json:"update_encodes"`
	Restages      int   `json:"restages"`
}

type imageBenchReport struct {
	MaxRatio float64         `json:"max_ratio_allowed"`
	Delta    []imageDeltaRow `json:"delta"`
	Staging  []imageStageRow `json:"staging"`
	Pass     bool            `json:"pass"`
}

func sweepImage(w *csv.Writer, seed int64, out string) error {
	report := imageBenchReport{MaxRatio: 1.25}

	if err := w.Write([]string{"section", "sessions_or_changed", "changed_bytes",
		"delta_wire_bytes", "full_wire_bytes", "ratio", "detail"}); err != nil {
		return err
	}
	for _, k := range []int{1, 4, 16} {
		row, err := imageDeltaCase(seed, k)
		if err != nil {
			return err
		}
		report.Delta = append(report.Delta, row)
		if err := w.Write([]string{"dsmcc", strconv.Itoa(k),
			strconv.FormatInt(row.ChangedBytes, 10),
			strconv.FormatInt(row.DeltaWireBytes, 10),
			strconv.FormatInt(row.FullWireBytes, 10),
			f(row.Ratio),
			fmt.Sprintf("cache_hits=%d legacy_cycles=%d", row.CacheHits, row.LegacyCycles)}); err != nil {
			return err
		}
	}

	for _, sessions := range []int{1, 16} {
		row, err := imageStageCase(seed, sessions)
		if err != nil {
			return err
		}
		report.Staging = append(report.Staging, row)
		if err := w.Write([]string{"transport", strconv.Itoa(sessions), "", "", "", "",
			fmt.Sprintf("join_encodes=%d update_encodes=%d restages=%d",
				row.JoinEncodes, row.UpdateEncodes, row.Restages)}); err != nil {
			return err
		}
	}
	w.Flush()

	// Gates. Fail in-process so CI catches a regression without parsing
	// the JSON.
	report.Pass = true
	var fail error
	for _, r := range report.Delta {
		if r.Ratio > report.MaxRatio {
			report.Pass = false
			fail = fmt.Errorf("image gate: delta of %d modules costs %d wire bytes for %d changed bytes (ratio %.3f > %.2f)",
				r.ChangedModules, r.DeltaWireBytes, r.ChangedBytes, r.Ratio, report.MaxRatio)
		}
		if !r.WarmConverged {
			report.Pass = false
			fail = fmt.Errorf("image gate: warm receiver failed to converge from a %d-module delta", r.ChangedModules)
		}
		if r.LegacyCycles <= 0 {
			report.Pass = false
			fail = fmt.Errorf("image gate: legacy receiver never converged under loss (delta of %d modules)", r.ChangedModules)
		}
	}
	first := report.Staging[0]
	for _, r := range report.Staging {
		if r.JoinEncodes != first.JoinEncodes || r.UpdateEncodes != first.UpdateEncodes {
			report.Pass = false
			fail = fmt.Errorf("image gate: staging encodes not flat in session count: %d sessions cost join=%d update=%d, %d sessions cost join=%d update=%d",
				first.Sessions, first.JoinEncodes, first.UpdateEncodes,
				r.Sessions, r.JoinEncodes, r.UpdateEncodes)
		}
	}

	raw, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if fail != nil {
		return fail
	}
	fmt.Fprintf(os.Stderr, "image sweep: gates passed, wrote %s\n", out)
	return nil
}

// imageDeltaCase measures one carousel delta re-air with k changed
// modules and proves both receiver generations assemble correctly.
func imageDeltaCase(seed int64, k int) (imageDeltaRow, error) {
	row := imageDeltaRow{ChangedModules: k}
	rng := rand.New(rand.NewSource(seed))
	c, err := dsmcc.NewCarousel(0x420, 0)
	if err != nil {
		return row, err
	}
	files := make([]dsmcc.File, imageBenchModules)
	for i := range files {
		data := make([]byte, imageBenchModuleSize)
		rng.Read(data)
		files[i] = dsmcc.File{Name: fmt.Sprintf("m%02d", i), Data: data}
	}
	if err := c.SetFiles(files); err != nil {
		return row, err
	}
	full, err := c.EncodeCycle()
	if err != nil {
		return row, err
	}

	// Warm up a hash-aware receiver (and its chunk cache) on gen 1.
	cache := dsmcc.NewChunkCache(64 << 20)
	warm := dsmcc.NewReceiver()
	warm.SetCache(cache)
	for _, s := range full {
		warm.HandleSection(s)
	}
	for _, f := range files {
		if got, ok := warm.File(f.Name); !ok || len(got) != len(f.Data) {
			return row, fmt.Errorf("warm receiver failed to assemble %s at gen 1", f.Name)
		}
	}

	// Mutate k modules and re-air only the delta.
	for i := 0; i < k; i++ {
		data := make([]byte, imageBenchModuleSize)
		rng.Read(data)
		files[i] = dsmcc.File{Name: files[i].Name, Data: data}
	}
	if err := c.SetFiles(files); err != nil {
		return row, err
	}
	layout, err := c.Layout()
	if err != nil {
		return row, err
	}
	row.ChangedBytes = int64(k) * imageBenchModuleSize
	row.DeltaWireBytes = layout.DeltaWire
	row.FullWireBytes = layout.CycleWire
	row.Ratio = float64(row.DeltaWireBytes) / float64(row.ChangedBytes)
	row.Savings = 1 - float64(row.DeltaWireBytes)/float64(row.FullWireBytes)

	delta, err := c.EncodeDeltaCycle()
	if err != nil {
		return row, err
	}
	// The receiver that followed gen 1 converges from the delta alone;
	// so does a cold receiver sharing only the warm chunk cache.
	met := dsmcc.NewCacheMetrics(obs.NewRegistry())
	cache.Instrument(met)
	cold := dsmcc.NewReceiver()
	cold.SetCache(cache)
	for _, s := range delta {
		warm.HandleSection(s)
		cold.HandleSection(s)
	}
	row.WarmConverged = true
	for _, f := range files {
		for _, r := range []*dsmcc.Receiver{warm, cold} {
			got, ok := r.File(f.Name)
			if !ok || !bytes.Equal(got, f.Data) {
				row.WarmConverged = false
			}
		}
	}
	row.CacheHits = met.Hits()

	// Mixed-version interop under fault injection: a hash-unaware
	// receiver ignores the delta plane and converges from lossy full
	// cycles instead.
	legacy := dsmcc.NewReceiver()
	legacy.DisableHashes = true
	for _, s := range delta {
		legacy.HandleSection(s) // cold: the delta alone cannot complete it
	}
	lossRng := rand.New(rand.NewSource(seed + 1))
	for cycle := 1; cycle <= 20; cycle++ {
		secs, err := c.EncodeCycle()
		if err != nil {
			return row, err
		}
		for _, s := range secs {
			if lossRng.Float64() < 0.2 {
				continue // injected section loss
			}
			legacy.HandleSection(s)
		}
		done := true
		for _, f := range files {
			got, ok := legacy.File(f.Name)
			if !ok || !bytes.Equal(got, f.Data) {
				done = false
				break
			}
		}
		if done {
			row.LegacyCycles = cycle
			break
		}
	}
	return row, nil
}

// imageStageCase serves n full node sessions from one coordinator, then
// updates one 64 KiB chunk of the staged image, and reports the encode
// cost of each phase. Both must be independent of n.
func imageStageCase(seed int64, n int) (imageStageRow, error) {
	row := imageStageRow{Sessions: n}
	payload := make([]byte, imageBenchModules*imageBenchModuleSize)
	rand.New(rand.NewSource(seed)).Read(payload)
	img := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w",
		Payload: append([]byte(nil), payload...)}
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen:          "127.0.0.1:0",
		Name:            "image-bench",
		Image:           img,
		ImageChunkBytes: imageBenchModuleSize,
	})
	if err != nil {
		return row, err
	}
	defer coord.Close()
	go coord.Serve()
	construction := coord.BroadcastEncodes()

	g := workload.Generator{Name: "image-bench", Tasks: 2 * n,
		InputBytes: 64, OutputBytes: 64, MeanSeconds: 0.5}
	job, err := g.Generate()
	if err != nil {
		return row, err
	}
	if _, err := coord.Submit(job); err != nil {
		return row, err
	}
	var wg sync.WaitGroup
	reports := make([]transport.NodeReport, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = transport.RunNode(transport.NodeConfig{
				Addr: coord.Addr(), NodeID: uint64(i + 1),
				TimeScale: 1000, Seed: seed, PinnedKey: coord.PublicKey(),
			})
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return row, fmt.Errorf("node %d: %w", i+1, errs[i])
		}
		if !reports[i].Joined {
			return row, fmt.Errorf("node %d did not join: %+v", i+1, reports[i])
		}
		row.Restages += reports[i].Restages
	}
	row.JoinEncodes = coord.BroadcastEncodes() - construction // must be 0

	// One-chunk recompose: flip bytes inside a single 64 KiB chunk.
	img2 := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w",
		Payload: append([]byte(nil), payload...)}
	for i := 0; i < 128; i++ {
		img2.Payload[5*imageBenchModuleSize+i] ^= 0xFF
	}
	before := coord.BroadcastEncodes()
	if err := coord.UpdateImage(img2); err != nil {
		return row, err
	}
	row.UpdateEncodes = coord.BroadcastEncodes() - before
	return row, nil
}
