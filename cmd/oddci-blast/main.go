// Command oddci-blast runs the repository's blastn-style aligner
// standalone: the workload the OddCI instances execute, usable directly
// against FASTA inputs or synthetic databases.
//
//	oddci-blast -db db.fasta -query query.fasta -gapped
//	oddci-blast -synth-db 1000x2000 -synth-query 256 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"oddci/blast"
)

func main() {
	var (
		dbPath     = flag.String("db", "", "database FASTA file")
		queryPath  = flag.String("query", "", "query FASTA file (first sequence used)")
		synthDB    = flag.String("synth-db", "", "synthetic database SEQSxLEN (e.g. 1000x2000)")
		synthQuery = flag.Int("synth-query", 0, "synthetic query length")
		seed       = flag.Int64("seed", 1, "seed for synthetic inputs")
		minScore   = flag.Int("min-score", 28, "report threshold")
		word       = flag.Int("word", 11, "seed word size")
		both       = flag.Bool("both-strands", true, "search plus and minus strands")
		gapped     = flag.Bool("gapped", false, "refine hits with banded gapped alignment")
		top        = flag.Int("top", 20, "print at most this many hits")
		plant      = flag.Int("plant", 0, "plant this many query fragments in a synthetic database")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	db, err := loadDB(*dbPath, *synthDB, rng)
	if err != nil {
		log.Fatal(err)
	}
	query, err := loadQuery(*queryPath, *synthQuery, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *plant; i++ {
		idx := rng.Intn(len(db))
		fragLen := len(query) / 2
		if max := len(db[idx].Data) - 10; fragLen > max {
			fragLen = max
		}
		if fragLen < 20 {
			continue
		}
		qStart := rng.Intn(len(query) - fragLen + 1)
		sStart := rng.Intn(len(db[idx].Data) - fragLen + 1)
		blast.PlantHit(rng, db, query, idx, qStart, sStart, fragLen, fragLen/30)
	}

	params := blast.DefaultParams()
	params.MinScore = *minScore
	params.K = *word

	fmt.Printf("query: %d nt;  database: %d sequences, %.2f Mbases\n",
		len(query), len(db), float64(blast.DBBytes(db))/1e6)

	var hits []blast.StrandHit
	if *both {
		hits, err = blast.SearchBothStrands(query, db, params)
	} else {
		var plus []blast.Hit
		plus, err = blast.Search(query, db, params)
		for _, h := range plus {
			hits = append(hits, blast.StrandHit{Hit: h, Strand: blast.Plus})
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hits ≥ %d: %d\n\n", *minScore, len(hits))
	if len(hits) > *top {
		hits = hits[:*top]
	}

	byID := make(map[string][]byte, len(db))
	for _, s := range db {
		byID[s.ID] = s.Data
	}
	gp := blast.DefaultGapParams()
	gp.Params = params
	for _, h := range hits {
		fmt.Printf("%-12s strand=%-5s score=%-4d q=%d..%d s=%d..%d",
			h.SeqID, h.Strand, h.Score,
			h.QueryStart, h.QueryStart+h.Length, h.SubjStart, h.SubjStart+h.Length)
		if *gapped {
			q := query
			if h.Strand == blast.Minus {
				q = blast.ReverseComplement(query)
			}
			if a, err := blast.Refine(q, byID[h.SeqID], h.Hit, gp); err == nil {
				fmt.Printf("  gapped=%d q=%d..%d s=%d..%d identity=%.1f%% cigar=%s", a.Score,
					a.QueryStart, a.QueryStart+a.QueryLen, a.SubjStart, a.SubjStart+a.SubjLen, a.Identity*100, a.Cigar())
			}
		}
		fmt.Println()
	}
}

func loadDB(path, synth string, rng *rand.Rand) ([]blast.Sequence, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return blast.ReadFASTA(f)
	case synth != "":
		parts := strings.SplitN(synth, "x", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -synth-db %q, want SEQSxLEN", synth)
		}
		n, err1 := strconv.Atoi(parts[0])
		l, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || n <= 0 || l <= 0 {
			return nil, fmt.Errorf("bad -synth-db %q", synth)
		}
		return blast.RandomDB(rng, n, l, l), nil
	default:
		return nil, fmt.Errorf("provide -db or -synth-db")
	}
}

func loadQuery(path string, synth int, rng *rand.Rand) ([]byte, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		seqs, err := blast.ReadFASTA(f)
		if err != nil {
			return nil, err
		}
		return seqs[0].Data, nil
	case synth > 0:
		return blast.RandomSeq(rng, synth), nil
	default:
		return nil, fmt.Errorf("provide -query or -synth-query")
	}
}
