// Package flute is the wire layout of the second broadcast substrate of
// §3.3: a FLUTE/ALC-style file delivery session over IP multicast, as a
// broadband operator or mobile network would deploy OddCI ("multicast
// transmission by broadband networks, mobile phone networks"). Files are
// chunked into datagram-sized blocks and transmitted cyclically with the
// chunks of all files interleaved round-robin — the standard FLUTE
// arrangement.
//
// A Session is a dsmcc.Content: the shared playout engine
// (dsmcc.Broadcaster) airs it exactly as it airs a DSM-CC Carousel, so
// the whole OddCI control plane, its telemetry and its update rules run
// over either unchanged. What differs is what is FLUTE: the datagram
// framing, the interleave, and the receiver model — datagram receivers
// cache any chunk they see, so a join at a random phase completes in at
// most ONE cycle, versus the DSM-CC file-granularity receiver's expected
// 1.5 cycles.
package flute

import (
	"bytes"
	"errors"
	"sort"

	"oddci/internal/dsmcc"
)

const (
	// ChunkPayload is the file bytes carried per datagram.
	ChunkPayload = 1400
	// chunkOverhead covers IP + UDP + ALC/LCT headers per datagram.
	chunkOverhead = 60
)

// Session is the sender-side content model of one file delivery
// session: the multicast analogue of dsmcc.Carousel. Its layouts carry
// no directory section and no content hashes, so a receiver's chunk
// cache never short-cuts a read; there is no delta re-air either, a new
// generation costs its whole cycle.
type Session struct {
	versions map[string]uint8
	cur      *dsmcc.Layout
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{versions: make(map[string]uint8), cur: dsmcc.NewLayout(dsmcc.Layout{})}
}

// Check implements dsmcc.Content: datagrams put no limit of their own on
// a content set.
func (s *Session) Check(files []dsmcc.File) error { return dsmcc.CheckFiles(files) }

// SetFiles implements dsmcc.Content: it lays out the next generation. A
// file's version moves when its bytes do, which is what restarts a read
// in flight. The Data slices are kept, capacity clipped so an append
// reallocates, and delivered as they are.
func (s *Session) SetFiles(files []dsmcc.File) error {
	if err := s.Check(files); err != nil {
		return err
	}
	l := dsmcc.Layout{Generation: s.cur.Generation + 1, Entries: make([]dsmcc.LayoutEntry, len(files))}
	for i, f := range files {
		prev, existed := s.cur.Entry(f.Name)
		changed := !existed || !bytes.Equal(prev.Data, f.Data)
		if changed {
			s.versions[f.Name]++
			l.ChangedModules++
		}
		l.Entries[i] = dsmcc.LayoutEntry{
			Name:    f.Name,
			Version: s.versions[f.Name],
			Changed: changed,
			Data:    f.Data[:len(f.Data):len(f.Data)],
		}
	}
	ends, cycleWire := interleave(files)
	l.CycleWire, l.DeltaWire = cycleWire, cycleWire
	l.Completion = func(e *dsmcc.LayoutEntry, inCycle int64) int64 {
		return completion(ends[e.Name], cycleWire, inCycle)
	}
	s.cur = dsmcc.NewLayout(l)
	return nil
}

// Layout implements dsmcc.Content.
func (s *Session) Layout() (*dsmcc.Layout, error) {
	if len(s.cur.Entries) == 0 {
		return nil, errors.New("flute: empty content set")
	}
	return s.cur, nil
}

// interleave lays one cycle out on the wire, the chunks of all files
// round-robin: for each file, the wire-byte end offset of each of its
// chunks within the cycle, and the cycle's wire size.
func interleave(files []dsmcc.File) (ends map[string][]int64, cycleWire int64) {
	ends = make(map[string][]int64, len(files))
	remaining := make([]int, len(files))
	active := len(files)
	for i, f := range files {
		remaining[i] = (len(f.Data) + ChunkPayload - 1) / ChunkPayload
		if remaining[i] == 0 {
			remaining[i] = 1 // empty files still occupy one announcement chunk
		}
		ends[f.Name] = make([]int64, 0, remaining[i])
	}
	var pos int64
	for active > 0 {
		for i, f := range files {
			if remaining[i] == 0 {
				continue
			}
			size := ChunkPayload
			if remaining[i] == 1 {
				size = len(f.Data) - len(ends[f.Name])*ChunkPayload
			}
			pos += int64(size + chunkOverhead)
			ends[f.Name] = append(ends[f.Name], pos)
			remaining[i]--
			if remaining[i] == 0 {
				active--
			}
		}
	}
	return ends, pos
}

// completion is the datagram receiver's rule: every chunk heard once, in
// any order. A receiver that starts listening inCycle bytes into a cycle
// of cycleWire bytes holds the whole file once the last chunk to end at
// or before inCycle has come round again — or, when none has, at the end
// of the file's last chunk this cycle. Never more than one cycle. ends
// is ascending.
func completion(ends []int64, cycleWire, inCycle int64) int64 {
	missed := sort.Search(len(ends), func(i int) bool { return ends[i] > inCycle })
	if missed == 0 {
		return ends[len(ends)-1]
	}
	return cycleWire + ends[missed-1]
}
