package experiments

import (
	"math/rand"

	"oddci/internal/dsmcc"
	"oddci/internal/experiments/stats"
	"oddci/internal/flute"
)

func init() {
	register("abl-transport", "Ablation: broadcast substrate — DTV carousel vs IP-multicast FLUTE", runAblTransport)
}

// runAblTransport compares the wakeup-time distribution of the two §3.3
// substrates at equal spare capacity β, for receivers joining at random
// phases: DSM-CC contiguous modules with a file-granularity receiver vs
// FLUTE interleaved chunks with an inherent chunk cache.
func runAblTransport(cfg Config) (*Result, error) {
	images := []int{1 << 20, 4 << 20, 8 << 20}
	samples := 2000
	if cfg.Quick {
		images = []int{4 << 20}
		samples = 500
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))

	tbl := stats.NewTable(
		"Random-phase wakeup, cycles of the respective carousel (β equal)",
		"Image (MB)", "DTV mean", "DTV max", "FLUTE mean", "FLUTE max")
	for _, img := range images {
		dtv, fl, err := transportWaits(img, samples, rng)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(img)/(1<<20), dtv.Mean(), dtv.Max(), fl.Mean(), fl.Max())
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"FLUTE's interleaved chunks plus receiver-side caching cap the wakeup at 1.0 cycle (vs the DTV receiver's 1.5 mean / 2.0 max) — §3.3's substrate choice has a measurable wakeup consequence",
			"the full control plane runs unchanged over either substrate (see TestEndToEndOverIPMulticast)",
		},
	}, nil
}

// transportWaits samples the random-phase wait for an image of
// imageBytes, in cycles, on a DSM-CC carousel and on a flute session
// carrying the same three files. Each sample draws one phase per
// substrate, DTV first: the table is pinned to that order at the
// default seed.
func transportWaits(imageBytes, samples int, rng *rand.Rand) (dtv, fl stats.Sample, err error) {
	files := []dsmcc.File{
		{Name: "pna.xlet", Data: make([]byte, 16<<10)},
		{Name: "oddci.config", Data: make([]byte, 512)},
		{Name: "image", Data: make([]byte, imageBytes)},
	}
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return dtv, fl, err
	}
	var layouts [2]*dsmcc.Layout
	for i, c := range [2]dsmcc.Content{car, flute.NewSession()} {
		if err := c.SetFiles(files); err != nil {
			return dtv, fl, err
		}
		if layouts[i], err = c.Layout(); err != nil {
			return dtv, fl, err
		}
	}
	waits := [2]*stats.Sample{&dtv, &fl}
	for i := 0; i < samples; i++ {
		for j, l := range layouts {
			pos := rng.Int63n(l.CycleWire)
			done, _ := l.NextCompletion("image", pos, dsmcc.FileGranularity)
			waits[j].Add(float64(done-pos) / float64(l.CycleWire))
		}
	}
	return dtv, fl, nil
}
