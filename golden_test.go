package oddci

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/deploy_seed*.json from this build's results")

// deployGolden is what one netsim-mode deployment pins: the virtual
// makespan, a digest of every result in task order, and the whole
// telemetry snapshot. The timeline is not pinned: same-instant lines
// do not come out in a fixed order.
type deployGolden struct {
	Makespan      string          `json:"makespan"`
	MakespanNS    int64           `json:"makespan_ns"`
	Results       int             `json:"results"`
	ResultsSHA256 string          `json:"results_sha256"`
	Metrics       json.RawMessage `json:"metrics"`
}

// deploy runs the benchmark's sim_deploy shape through the facade: 128
// boxes, 1,024 five-second tasks and a 1 MiB worker image, all at
// initial probability 1, with the telemetry registry on.
func deploy(t *testing.T, seed int64) []byte {
	t.Helper()
	const nodes = 128
	sys, err := New(Options{Nodes: nodes, Seed: seed, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{Name: "golden-deploy", Tasks: 1024, MeanSeconds: 5,
		InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	img := WorkerImage(1 << 20)
	rand.New(rand.NewSource(seed)).Read(img.Payload)
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{Image: img, Target: nodes, InitialProbability: 1}); err != nil {
		t.Fatal(err)
	}
	makespan, err := sys.RunJob(h)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Results()
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	sum := sha256.New()
	var n [8]byte
	for _, id := range ids {
		binary.BigEndian.PutUint64(n[:], uint64(id))
		sum.Write(n[:])
		binary.BigEndian.PutUint64(n[:], uint64(len(res[id])))
		sum.Write(n[:])
		sum.Write(res[id])
	}
	out, err := json.MarshalIndent(deployGolden{
		Makespan:      makespan.String(),
		MakespanNS:    int64(makespan),
		Results:       len(res),
		ResultsSHA256: hex.EncodeToString(sum.Sum(nil)),
		Metrics:       json.RawMessage(sys.MetricsJSON()),
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestFacadeGoldenDeploy pins three whole netsim-mode deployments
// (seeds 1–3) byte for byte against testdata/deploy_seed*.json. A
// change to how the stack schedules, delivers or checks must leave
// them untouched at any core count; a change to the model itself
// regenerates them with `go test -run TestFacadeGoldenDeploy -update .`
// and says so.
func TestFacadeGoldenDeploy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got := deploy(t, seed)
			path := filepath.Join("testdata", fmt.Sprintf("deploy_seed%d.json", seed))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("deployment differs from %s: %s", path, firstLineDiff(got, want))
			}
		})
	}
}

// firstLineDiff names the first line on which two renderings part.
func firstLineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %s, want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
