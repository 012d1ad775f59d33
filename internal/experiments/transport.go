package experiments

import (
	"fmt"
	"math/rand"

	"oddci/internal/dsmcc"
	"oddci/internal/experiments/stats"
	"oddci/internal/flute"
	"oddci/internal/simtime"
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
		files := []dsmcc.File{
			{Name: "pna.xlet", Data: make([]byte, 16<<10)},
			{Name: "oddci.config", Data: make([]byte, 512)},
			{Name: "image", Data: make([]byte, img)},
		}
		car, err := dsmcc.NewCarousel(0x300, 0)
		if err != nil {
			return nil, err
		}
		if err := car.SetFiles(files); err != nil {
			return nil, err
		}
		dl, err := car.Layout()
		if err != nil {
			return nil, err
		}
		caster, err := flute.NewCaster(simtime.NewSim(simEpoch), 1e6)
		if err != nil {
			return nil, err
		}
		if err := caster.Start(files); err != nil {
			return nil, err
		}
		var dtv, fm stats.Sample
		for i := 0; i < samples; i++ {
			dp := rng.Int63n(dl.CycleWire)
			dd, _ := dl.NextCompletion("image", dp, dsmcc.FileGranularity)
			dtv.Add(float64(dd-dp) / float64(dl.CycleWire))
			fp := rng.Int63n(caster.CycleWire())
			fd, ok := caster.Completion("image", fp)
			if !ok {
				return nil, fmt.Errorf("flute layout missing image")
			}
			fm.Add(float64(fd-fp) / float64(caster.CycleWire()))
		}
		tbl.AddRow(float64(img)/(1<<20), dtv.Mean(), dtv.Max(), fm.Mean(), fm.Max())
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"FLUTE's interleaved chunks plus receiver-side caching cap the wakeup at 1.0 cycle (vs the DTV receiver's 1.5 mean / 2.0 max) — §3.3's substrate choice has a measurable wakeup consequence",
			"the full control plane runs unchanged over either substrate (see TestEndToEndOverIPMulticast)",
		},
	}, nil
}
