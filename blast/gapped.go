package blast

import (
	"errors"
	"fmt"
)

// GapParams extends the ungapped scoring with affine gap penalties.
type GapParams struct {
	Params
	// GapOpen and GapExtend are positive costs (blastn defaults 5/2).
	GapOpen, GapExtend int
	// Band limits the alignment to diagonals within ±Band of the seed
	// diagonal (default 16).
	Band int
}

// DefaultGapParams returns blastn-like gapped defaults.
func DefaultGapParams() GapParams {
	return GapParams{Params: DefaultParams(), GapOpen: 5, GapExtend: 2, Band: 16}
}

// Validate reports parameter problems.
func (g GapParams) Validate() error {
	if err := g.Params.Validate(); err != nil {
		return err
	}
	if g.GapOpen <= 0 || g.GapExtend <= 0 {
		return errors.New("blast: gap costs must be positive")
	}
	if g.Band < 1 {
		return errors.New("blast: band must be at least 1")
	}
	return nil
}

// EditOp is one aligned column type.
type EditOp byte

// Edit operations (CIGAR-style).
const (
	OpMatch  EditOp = 'M' // match or mismatch column
	OpInsert EditOp = 'I' // gap in subject (query base consumed)
	OpDelete EditOp = 'D' // gap in query (subject base consumed)
)

// GappedAlignment is the refined form of a Hit.
type GappedAlignment struct {
	Score      int
	QueryStart int
	SubjStart  int
	QueryLen   int
	SubjLen    int
	// Ops is the run-length-encoded edit script.
	Ops []EditRun
	// Identity is the fraction of match columns.
	Identity float64
}

// EditRun is one run of identical operations.
type EditRun struct {
	Op  EditOp
	Len int
}

// Cigar renders the edit script ("87M1D12M").
func (a *GappedAlignment) Cigar() string {
	out := ""
	for _, r := range a.Ops {
		out += fmt.Sprintf("%d%c", r.Len, r.Op)
	}
	return out
}

// Refine runs a banded Smith–Waterman around an ungapped hit, producing
// a gapped local alignment — blastn's second stage. The band is centred
// on the hit's diagonal; the search window extends the hit extent by
// the band on each side (clamped to the sequences).
func Refine(query []byte, subject []byte, hit Hit, g GapParams) (*GappedAlignment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Gapped-stage window: the whole query (queries are small) against
	// the subject region the hit's diagonal projects onto, padded by
	// the band.
	q0, q1 := 0, len(query)
	s0 := hit.SubjStart - hit.QueryStart - g.Band
	if s0 < 0 {
		s0 = 0
	}
	s1 := hit.SubjStart - hit.QueryStart + len(query) + g.Band
	if s1 > len(subject) {
		s1 = len(subject)
	}
	q := query[q0:q1]
	s := subject[s0:s1]
	if len(q) == 0 || len(s) == 0 {
		return nil, errors.New("blast: empty refinement window")
	}

	// Banded local DP. diag(i,j) = j - i must stay within
	// centre ± band, where centre is the seed diagonal inside the
	// window.
	centre := (hit.SubjStart - s0) - (hit.QueryStart - q0)
	band := g.Band

	const neg = -1 << 30
	cols := len(s) + 1
	// H: best score ending at (i,j); E/F: gap states (affine).
	H := make([][]int, len(q)+1)
	E := make([][]int, len(q)+1)
	F := make([][]int, len(q)+1)
	for i := range H {
		H[i] = make([]int, cols)
		E[i] = make([]int, cols)
		F[i] = make([]int, cols)
		for j := range H[i] {
			H[i][j] = 0
			E[i][j] = neg
			F[i][j] = neg
		}
	}
	best, bi, bj := 0, 0, 0
	for i := 1; i <= len(q); i++ {
		jLo := 1
		if d := i + centre - band; d > jLo {
			jLo = d
		}
		jHi := len(s)
		if d := i + centre + band; d < jHi {
			jHi = d
		}
		for j := jLo; j <= jHi; j++ {
			sub := g.Mismatch
			if q[i-1] == s[j-1] {
				sub = g.Match
			}
			E[i][j] = maxInt(E[i][j-1]-g.GapExtend, H[i][j-1]-g.GapOpen-g.GapExtend)
			F[i][j] = maxInt(F[i-1][j]-g.GapExtend, H[i-1][j]-g.GapOpen-g.GapExtend)
			h := maxInt(0, maxInt(H[i-1][j-1]+sub, maxInt(E[i][j], F[i][j])))
			H[i][j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	if best <= 0 {
		return nil, errors.New("blast: no positive-scoring gapped alignment in window")
	}

	// Traceback from (bi, bj) to the local start (H == 0), tracking
	// which affine state we are in.
	type tbState int
	const (
		inH tbState = iota
		inE
		inF
	)
	var ops []EditOp
	i, j := bi, bj
	matches, columns := 0, 0
	state := inH
	for i > 0 && j > 0 {
		switch state {
		case inH:
			h := H[i][j]
			if h == 0 {
				i, j = -i, -j // sentinel: terminate outer loop cleanly
				break
			}
			sub := g.Mismatch
			if q[i-1] == s[j-1] {
				sub = g.Match
			}
			switch {
			case h == H[i-1][j-1]+sub:
				ops = append(ops, OpMatch)
				columns++
				if q[i-1] == s[j-1] {
					matches++
				}
				i--
				j--
			case h == E[i][j]:
				state = inE
			case h == F[i][j]:
				state = inF
			default:
				// Band edge artefact: stop the local alignment here.
				i, j = -i, -j
			}
		case inE:
			ops = append(ops, OpDelete)
			columns++
			if E[i][j] == H[i][j-1]-g.GapOpen-g.GapExtend {
				state = inH
			}
			j--
		case inF:
			ops = append(ops, OpInsert)
			columns++
			if F[i][j] == H[i-1][j]-g.GapOpen-g.GapExtend {
				state = inH
			}
			i--
		}
		if i < 0 {
			i, j = -i, -j
			break
		}
	}
	// Reverse and run-length encode.
	var runs []EditRun
	for k := len(ops) - 1; k >= 0; k-- {
		op := ops[k]
		if len(runs) > 0 && runs[len(runs)-1].Op == op {
			runs[len(runs)-1].Len++
		} else {
			runs = append(runs, EditRun{Op: op, Len: 1})
		}
	}
	qLen, sLen := 0, 0
	for _, r := range runs {
		switch r.Op {
		case OpMatch:
			qLen += r.Len
			sLen += r.Len
		case OpInsert:
			qLen += r.Len
		case OpDelete:
			sLen += r.Len
		}
	}
	return &GappedAlignment{
		Score:      best,
		QueryStart: q0 + i,
		SubjStart:  s0 + j,
		QueryLen:   qLen,
		SubjLen:    sLen,
		Ops:        runs,
		Identity:   float64(matches) / float64(maxInt(columns, 1)),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
