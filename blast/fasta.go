package blast

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// ReadFASTA parses FASTA-formatted sequences: '>'-prefixed headers (the
// first whitespace-delimited token becomes the ID) followed by sequence
// lines. Bases are uppercased; whitespace is ignored.
func ReadFASTA(r io.Reader) ([]Sequence, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Sequence
	var cur *Sequence
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ">") {
			header := strings.TrimSpace(text[1:])
			if header == "" {
				return nil, fmt.Errorf("blast: empty FASTA header at line %d", line)
			}
			id := strings.Fields(header)[0]
			out = append(out, Sequence{ID: id})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("blast: sequence data before any header at line %d", line)
		}
		cur.Data = append(cur.Data, bytes.ToUpper([]byte(text))...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("blast: no sequences in input")
	}
	for _, s := range out {
		if len(s.Data) == 0 {
			return nil, fmt.Errorf("blast: sequence %q has no data", s.ID)
		}
	}
	return out, nil
}
