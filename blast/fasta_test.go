package blast

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadFASTA(t *testing.T) {
	in := strings.NewReader(`>seq1 some description
ACGTACGT
acgt

>seq2
TTTT
`)
	seqs, err := ReadFASTA(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("sequences = %d", len(seqs))
	}
	if seqs[0].ID != "seq1" || string(seqs[0].Data) != "ACGTACGTACGT" {
		t.Fatalf("seq1 = %+v", seqs[0])
	}
	if seqs[1].ID != "seq2" || string(seqs[1].Data) != "TTTT" {
		t.Fatalf("seq2 = %+v", seqs[1])
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"",               // no sequences
		"ACGT\n",         // data before header
		">\nACGT\n",      // empty header
		">only-header\n", // header without data
		">a\nACGT\n>b\n", // trailing empty record
	}
	for i, c := range cases {
		if _, err := ReadFASTA(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: ReadFASTA recovers arbitrary sequence sets written at
// arbitrary line widths.
func TestFASTARoundTripProperty(t *testing.T) {
	f := func(seed int64, n, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%5 + 1
		seqs := make([]Sequence, count)
		for i := range seqs {
			seqs[i] = Sequence{
				ID:   "s" + string(rune('A'+i)),
				Data: RandomSeq(rng, rng.Intn(300)+1),
			}
		}
		var buf bytes.Buffer
		w := int(width)%90 + 1
		for _, s := range seqs {
			fmt.Fprintf(&buf, ">%s\n", s.ID)
			for off := 0; off < len(s.Data); off += w {
				buf.Write(s.Data[off:min(off+w, len(s.Data))])
				buf.WriteByte('\n')
			}
		}
		got, err := ReadFASTA(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, seqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
