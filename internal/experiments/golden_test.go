package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.txt from this build's output")

// goldenIDs are the experiments whose quick output is byte-identical run
// to run and at any GOMAXPROCS. abl-heartbeat, table2 and table3 read the
// host clock (hostclock.go) and are left out.
var goldenIDs = []string{
	"abl-prob", "abl-churn", "abl-carousel", "abl-transport", "byzantine",
	"churn-eff", "fig6", "fig7", "lifecycle", "table1", "wakeup",
}

// TestGoldenQuickOutput pins what `oddci-sim -exp <id> -quick` prints at
// the default seed, byte for byte. A change that should not move a table
// must leave these files untouched; a change to a model regenerates them
// with `go test ./internal/experiments -run TestGoldenQuickOutput -update`
// and says so.
func TestGoldenQuickOutput(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Config{Seed: 2009, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			res.Render(&b)
			got := b.Bytes()
			path := filepath.Join("testdata", id+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Fatalf("output differs from %s: %s", path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line on which two renderings part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
